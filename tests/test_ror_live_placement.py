"""The ROR control plane reads placement from its CN on every round, so a
failover's rewiring reaches the collector's RCP polls and every CN's
status probes without any copy to patch."""

from repro import ClusterConfig, build_cluster, three_city
from repro.sim.units import ms


def first_rounds(sent, kind):
    """``{src: [dst, ...]}``: each source's first round of ``kind``
    requests (the requests it sent at the first instant it sent any)."""
    first_at, rounds = {}, {}
    for at, src, dst, body in sent:
        if body[0] != kind:
            continue
        if first_at.setdefault(src, at) == at:
            rounds.setdefault(src, []).append(dst)
    return rounds


def test_control_plane_follows_a_promotion(monkeypatch):
    db = build_cluster(ClusterConfig.globaldb(
        three_city(), cns_per_region=2, auto_failover=True,
        failover_grace_ns=ms(200)))
    db.run_for(0.3)
    victim = db.primaries[1]
    victim.fail()
    db.run_for(1.0)
    [event] = db.failover.events
    promoted = event.new_primary

    sent = []
    request = db.network.request

    def recording(src, dst, body, *args, **kwargs):
        sent.append((db.env.now, src, dst, body))
        return request(src, dst, body, *args, **kwargs)

    monkeypatch.setattr(db.network, "request", recording)
    db.run_for(0.1)

    cns = {cn.name: cn for cn in db.cns}
    polls = first_rounds(sent, "max_commit_ts")
    # One collector per region polls; the promoted node is a primary now.
    assert sorted(cns[name].region for name in polls) \
        == sorted(db.config.topology.regions)
    for name, replicas in polls.items():
        assert set(replicas) == set(cns[name].all_replicas)
        assert promoted not in replicas

    statuses = first_rounds(sent, "status")
    for cn in db.cns:
        assert promoted in cn.all_primaries
        assert promoted not in cn.all_replicas
        assert statuses[cn.name] == cn.all_replicas + cn.all_primaries

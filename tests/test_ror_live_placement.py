"""The ROR control plane reads placement from its CN on every round, so a
failover's rewiring reaches every CN's probe round (status requests to
replicas, heartbeat notices to primaries) without any copy to patch."""

from repro import ClusterConfig, build_cluster, three_city
from repro.sim.units import ms


def first_rounds(sent, kind):
    """``{src: [dst, ...]}``: each source's first round of ``kind``
    messages (the ones it sent at the first instant it sent any)."""
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
    request, send = db.network.request, db.network.send

    def recording_request(src, dst, body, *args, **kwargs):
        sent.append((db.env.now, src, dst, body))
        return request(src, dst, body, *args, **kwargs)

    def recording_send(src, dst, payload, *args, **kwargs):
        if isinstance(payload, tuple):  # a notice, not a request's message
            sent.append((db.env.now, src, dst, payload))
        return send(src, dst, payload, *args, **kwargs)

    monkeypatch.setattr(db.network, "request", recording_request)
    monkeypatch.setattr(db.network, "send", recording_send)
    db.run_for(0.2)

    cns = {cn.name for cn in db.cns}
    sent = [message for message in sent if message[1] in cns]
    probes = first_rounds(sent, "status")
    notices = first_rounds(sent, "heartbeat")
    # Every CN probes, collector or not; the promoted node is a primary
    # now, so it gets a notice and no request.
    assert set(probes) == set(notices) == cns
    for cn in db.cns:
        assert promoted in cn.all_primaries
        assert promoted not in cn.all_replicas
        assert probes[cn.name] == cn.all_replicas
        assert notices[cn.name] == cn.all_primaries

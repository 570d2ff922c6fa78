"""The CN's abort paths. In 2PC, a participant that cannot prepare and a
GTM that cannot stamp the commit both end in ``abort_prepared`` on every
write shard and never in ``commit_prepared``. Before commit, a scan or an
index lookup that finds a primary down aborts the transaction, so the row
locks it already holds are released."""

import pytest

from repro import ClusterConfig, TransactionAborted, build_cluster, one_region

ROWS = 24


def load_rows(db):
    session = db.session()
    session.create_table("t", [("k", "int"), ("v", "int")], primary_key=["k"])
    session.begin()
    for k in range(ROWS):
        session.insert("t", {"k": k, "v": k})
    session.commit()
    return session


def keys_on_two_shards(db):
    """One key on each of two different shards: (key_a, key_b)."""
    by_shard = {}
    for k in range(ROWS):
        by_shard.setdefault(db.shard_map.shard_for_key("t", (k,)), k)
    shard_a, shard_b = sorted(by_shard)[:2]
    return by_shard[shard_a], by_shard[shard_b]


def record_requests(monkeypatch, db):
    """Wrap ``network.request``: returns a list that collects every
    ``(destination, body)`` sent from then on."""
    sent = []
    request = db.network.request

    def recording(src, dst, body, *args, **kwargs):
        sent.append((dst, body))
        return request(src, dst, body, *args, **kwargs)

    monkeypatch.setattr(db.network, "request", recording)
    return sent


def two_shard_txn(db, session):
    """Open a transaction writing one key on each of two shards; returns
    ``(txid, key_a, key_b, primary_a, primary_b)``, lower shard first."""
    key_a, key_b = keys_on_two_shards(db)
    session.begin()
    session.update("t", (key_a,), {"v": -1})
    session.update("t", (key_b,), {"v": -1})
    txid = session._ctx.txid
    primary_of = session.cn.primary_of_shard
    return (txid, key_a, key_b,
            primary_of[db.shard_map.shard_for_key("t", (key_a,))],
            primary_of[db.shard_map.shard_for_key("t", (key_b,))])


def phase_two(sent, txid):
    """Destinations of each phase-2 kind sent for ``txid``."""
    by_kind = {}
    for dst, body in sent:
        if body[0] in ("abort_prepared", "commit_prepared") and body[1] == txid:
            by_kind.setdefault(body[0], []).append(dst)
    return by_kind


def assert_aborted_everywhere(session, sent, txid, primaries):
    cn = session.cn
    aborts_before = cn.txns_aborted
    with pytest.raises(TransactionAborted):
        session.commit()
    assert cn.txns_aborted == aborts_before + 1
    assert phase_two(sent, txid) == {"abort_prepared": primaries}


def test_participant_down_at_prepare_aborts_every_write_shard(monkeypatch):
    db = build_cluster(ClusterConfig.globaldb(one_region()))
    session = load_rows(db)
    txid, key_a, _key_b, primary_a, primary_b = two_shard_txn(db, session)
    db.node(primary_b).fail()
    sent = record_requests(monkeypatch, db)
    assert_aborted_everywhere(session, sent, txid,
                              [primary_a, primary_b])
    # The live participant released the row: a new writer commits.
    session.begin()
    session.update("t", (key_a,), {"v": 7})
    assert session.commit() > 0


def test_gtm_down_at_commit_aborts_every_write_shard(monkeypatch):
    db = build_cluster(ClusterConfig.baseline(one_region()))
    session = load_rows(db)
    txid, key_a, key_b, primary_a, primary_b = two_shard_txn(db, session)
    db.network.set_endpoint_up(db.gtm.name, False)
    sent = record_requests(monkeypatch, db)
    assert_aborted_everywhere(session, sent, txid,
                              [primary_a, primary_b])
    db.network.set_endpoint_up(db.gtm.name, True)
    session.begin()
    session.update("t", (key_a,), {"v": 7})
    session.update("t", (key_b,), {"v": 7})
    assert session.commit() > 0


def open_write_then_fail_other_primary(db):
    """Lock one row, then fail the primary of another shard: returns
    ``(session, key_a, key_b, engine_a)``."""
    session = load_rows(db)
    session.create_index("t", "v")
    key_a, key_b = keys_on_two_shards(db)
    session.begin()
    session.update("t", (key_a,), {"v": -1})
    primary_of = session.cn.primary_of_shard
    engine_a = db.node(primary_of[db.shard_map.shard_for_key(
        "t", (key_a,))]).engine
    assert engine_a.locks.locked_count() == 1
    db.node(primary_of[db.shard_map.shard_for_key("t", (key_b,))]).fail()
    return session, key_a, key_b, engine_a


def assert_aborted_and_unlocked(session, engine_a, key_a, aborts_before):
    assert not session.in_txn
    assert session.cn.txns_aborted == aborts_before + 1
    assert engine_a.locks.locked_count() == 0
    session.begin()
    session.update("t", (key_a,), {"v": 7})
    assert session.commit() > 0


def test_scan_with_a_primary_down_aborts_and_releases_locks():
    db = build_cluster(ClusterConfig.globaldb(one_region()))
    session, key_a, _key_b, engine_a = open_write_then_fail_other_primary(db)
    aborts_before = session.cn.txns_aborted
    with pytest.raises(TransactionAborted):
        session.scan("t")
    assert_aborted_and_unlocked(session, engine_a, key_a, aborts_before)


def test_lookup_with_its_primary_down_aborts_and_releases_locks():
    db = build_cluster(ClusterConfig.globaldb(one_region()))
    session, key_a, key_b, engine_a = open_write_then_fail_other_primary(db)
    aborts_before = session.cn.txns_aborted
    with pytest.raises(TransactionAborted):
        session._run(session.cn.g_lookup(session._ctx, "t", "v", key_b,
                                         shard_value=key_b))
    assert_aborted_and_unlocked(session, engine_a, key_a, aborts_before)

"""simsan tests: interprocedural rules SIM107–SIM110 and the runtime
deadlock/mutation sanitizer."""

import json
import subprocess
import sys

import pytest

from repro.errors import WriteConflict
from repro.lint import lint_paths, lint_source
from repro.san import Sanitizer, maybe_install
from repro.san.fingerprint import canonical, fingerprint
from repro.san.waitfor import WaitForGraph
from repro.sim import Environment, ms
from repro.sim.network import Network
from repro.storage.locks import LockTable


def rules_for(source: str, path: str = "fixture.py") -> list[str]:
    return [finding.rule for finding in lint_source(source, path=path)]


# ----------------------------------------------------------------------
# SIM107 — inconsistent lock acquisition order
# ----------------------------------------------------------------------
class TestSim107:
    def test_abba_order_flagged(self):
        source = """
def path_a(locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    yield locks.acquire(txid, "district", 2)

def path_b(locks, txid):
    yield locks.acquire(txid, "district", 2)
    yield locks.acquire(txid, "warehouse", 1)
"""
        findings = lint_source(source, path="f107.py")
        assert [f.rule for f in findings] == ["SIM107"]
        # The message names both orders so the cycle is actionable.
        assert "warehouse" in findings[0].message
        assert "district" in findings[0].message

    def test_order_built_across_call_flagged(self):
        source = """
def tail(locks, txid):
    yield locks.acquire(txid, "district", 2)

def path_a(locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    yield from tail(locks, txid)

def path_b(locks, txid):
    yield locks.acquire(txid, "district", 2)
    yield locks.acquire(txid, "warehouse", 1)
"""
        assert "SIM107" in rules_for(source)

    def test_consistent_order_clean(self):
        source = """
def path_a(locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    yield locks.acquire(txid, "district", 2)

def path_b(locks, txid):
    yield locks.acquire(txid, "warehouse", 9)
    yield locks.acquire(txid, "district", 8)
"""
        assert rules_for(source) == []

    def test_release_between_breaks_edge(self):
        source = """
def path_a(locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    locks.release_all(txid)
    yield locks.acquire(txid, "district", 2)

def path_b(locks, txid):
    yield locks.acquire(txid, "district", 2)
    locks.release_all(txid)
    yield locks.acquire(txid, "warehouse", 1)
"""
        assert rules_for(source) == []

    def test_pragma_suppresses(self):
        # The finding anchors at the witness acquire of the cycle's
        # lexicographically-smallest edge — pragma that line.
        source = """
def path_a(locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    yield locks.acquire(txid, "district", 2)

def path_b(locks, txid):
    yield locks.acquire(txid, "district", 2)
    yield locks.acquire(txid, "warehouse", 1)  # simlint: ignore[SIM107]
"""
        assert rules_for(source) == []


# ----------------------------------------------------------------------
# SIM108 — mutation after send
# ----------------------------------------------------------------------
class TestSim108:
    def test_direct_payload_mutation_flagged(self):
        source = """
def ship(network, dst, rows):
    network.send("cn", dst, payload=("redo", rows), size_bytes=10)
    rows.append("late")
"""
        assert rules_for(source) == ["SIM108"]

    def test_alias_through_local_tuple_flagged(self):
        source = """
def ship(network, dst, rows):
    payload = ("redo", rows)
    network.send("cn", dst, payload=payload, size_bytes=10)
    rows.append("late")
"""
        assert rules_for(source) == ["SIM108"]

    def test_mutation_in_callee_flagged(self):
        source = """
def scrub(batch):
    batch.clear()

def ship(network, dst, rows):
    network.send("cn", dst, payload=("redo", rows), size_bytes=10)
    scrub(rows)
"""
        assert rules_for(source) == ["SIM108"]

    def test_copy_before_send_clean(self):
        source = """
def ship(network, dst, rows):
    network.send("cn", dst, payload=("redo", list(rows)), size_bytes=10)
    rows.append("late")
"""
        assert rules_for(source) == []

    def test_rebind_kills_alias(self):
        source = """
def ship(network, dst, rows):
    network.send("cn", dst, payload=("redo", rows), size_bytes=10)
    rows = []
    rows.append("fresh-object-only")
"""
        assert rules_for(source) == []

    def test_swap_before_send_idiom_clean(self):
        # The shipper's idiom: detach the pending list, then ship it.
        source = """
def flush(self, network, dst):
    records = self.pending
    self.pending = []
    network.send("dn", dst, payload=("redo_batch", records), size_bytes=10)
"""
        assert rules_for(source) == []

    def test_pragma_suppresses(self):
        source = """
def ship(network, dst, rows):
    network.send("cn", dst, payload=("redo", rows), size_bytes=10)
    rows.append("late")  # simlint: ignore[SIM108]
"""
        assert rules_for(source) == []


# ----------------------------------------------------------------------
# SIM109 — yield while holding a lock outside the commit path
# ----------------------------------------------------------------------
class TestSim109:
    def test_yield_while_locked_flagged(self):
        source = """
def handle_update(env, locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    yield env.timeout(5)
"""
        findings = lint_source(source, path="f109.py")
        assert [f.rule for f in findings] == ["SIM109"]
        assert "warehouse" in findings[0].message

    def test_yield_in_callee_while_locked_flagged(self):
        source = """
def slow_wait(env):
    yield env.timeout(5)

def handle_update(env, locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    yield from slow_wait(env)
"""
        assert "SIM109" in rules_for(source)

    def test_commit_path_exempt(self):
        source = """
def commit_phase(env, locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    yield env.timeout(5)
"""
        assert rules_for(source) == []

    def test_release_before_yield_clean(self):
        source = """
def handle(env, locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    locks.release_all(txid)
    yield env.timeout(5)
"""
        assert rules_for(source) == []

    def test_pragma_suppresses(self):
        source = """
def handle_update(env, locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    yield env.timeout(5)  # simlint: ignore[SIM109]
"""
        assert rules_for(source) == []


# ----------------------------------------------------------------------
# SIM110 — shared mutable module-level state
# ----------------------------------------------------------------------
class TestSim110:
    POSITIVE = """
PENDING = []

def g_producer(env):
    while True:
        PENDING.append(1)
        yield env.timeout(1)

def g_consumer(env):
    while True:
        if PENDING:
            PENDING.pop(0)
        yield env.timeout(1)
"""

    def test_two_processes_mutating_flagged(self):
        findings = lint_source(self.POSITIVE, path="f110.py")
        assert [f.rule for f in findings] == ["SIM110"]
        assert "PENDING" in findings[0].message

    def test_single_process_clean(self):
        source = """
PENDING = []

def g_only(env):
    while True:
        PENDING.append(1)
        yield env.timeout(1)
"""
        assert rules_for(source) == []

    def test_read_only_sharing_clean(self):
        source = """
LIMITS = {"max": 10}

def g_a(env):
    while True:
        yield env.timeout(LIMITS["max"])

def g_b(env):
    while True:
        yield env.timeout(LIMITS["max"])
"""
        assert rules_for(source) == []

    def test_local_shadow_clean(self):
        source = """
PENDING = []

def g_a(env):
    PENDING = []
    while True:
        PENDING.append(1)
        yield env.timeout(1)

def g_b(env):
    PENDING = []
    while True:
        PENDING.append(1)
        yield env.timeout(1)
"""
        assert rules_for(source) == []

    def test_pragma_suppresses(self):
        source = """
PENDING = []  # simlint: ignore[SIM110]

def g_producer(env):
    while True:
        PENDING.append(1)
        yield env.timeout(1)

def g_consumer(env):
    while True:
        if PENDING:
            PENDING.pop(0)
        yield env.timeout(1)
"""
        assert rules_for(source) == []


# ----------------------------------------------------------------------
# Runtime: wait-for graph deadlock detection
# ----------------------------------------------------------------------
class TestRuntimeDeadlock:
    def run_abba(self, sanitize: bool):
        env = Environment()
        if sanitize:
            Sanitizer(env).install()
        locks = LockTable(env)
        outcome = {}

        def txn(me, delay, first, second):
            yield locks.acquire(me, first, (1,))
            yield env.timeout(delay)
            try:
                yield locks.acquire(me, second, (1,))
                outcome[me] = "granted"
            except WriteConflict as exc:
                outcome[me] = str(exc)
            locks.release_all(me)

        env.process(txn(1, 10, "warehouse", "district"))
        env.process(txn(2, 20, "district", "warehouse"))
        env.run()
        return env, locks, outcome

    def test_cycle_detected_at_wait_time_names_members(self):
        env, locks, outcome = self.run_abba(sanitize=True)
        assert outcome[1] == "granted"
        message = outcome[2]
        # The victim's WriteConflict names the full cycle: both txids and
        # both lock keys.
        assert "deadlock detected" in message
        assert "txn 1" in message and "txn 2" in message
        assert "warehouse" in message and "district" in message
        assert locks.deadlock_count == 1
        assert locks.timeout_count == 0
        # Detection happened at wait time (t=20ns), not at the 1s timeout.
        report = env.san.report
        assert report.count("deadlock-cycle") == 1
        assert report.findings[0].time_ns == 20

    def test_without_sanitizer_timeout_classified_as_deadlock(self):
        env, locks, outcome = self.run_abba(sanitize=False)
        aborted = [message for message in outcome.values()
                   if "timeout" in message]
        assert len(aborted) == 1
        assert locks.deadlock_count == 1

    def test_plain_timeout_not_counted_as_deadlock(self):
        env = Environment()
        locks = LockTable(env, default_timeout_ns=ms(20))
        locks.acquire(1, "t", (1,))  # holder never releases

        def waiter():
            with pytest.raises(WriteConflict):
                yield locks.acquire(2, "t", (1,))

        env.process(waiter())
        env.run()
        assert locks.timeout_count == 1
        assert locks.deadlock_count == 0

    def test_three_party_cycle(self):
        env = Environment()
        san = Sanitizer(env).install()
        locks = LockTable(env)
        outcome = {}

        def txn(me, delay, first, second):
            yield locks.acquire(me, first, (1,))
            yield env.timeout(delay)
            try:
                yield locks.acquire(me, second, (1,))
                outcome[me] = "granted"
            except WriteConflict as exc:
                outcome[me] = str(exc)
            locks.release_all(me)

        env.process(txn(1, 10, "a", "b"))
        env.process(txn(2, 10, "b", "c"))
        env.process(txn(3, 20, "c", "a"))
        env.run()
        assert "deadlock detected" in outcome[3]
        for member in ("txn 1", "txn 2", "txn 3"):
            assert member in outcome[3]
        finding = san.report.findings[0]
        details = dict(finding.details)
        assert details["members"] == "3,1,2"
        assert details["size"] == "3"

    def test_handoff_updates_graph(self):
        # After a FIFO handoff the graph must track the new holder —
        # otherwise later cycles are attributed to the old one.
        env = Environment()
        san = Sanitizer(env).install()
        locks = LockTable(env)

        def first():
            yield locks.acquire(1, "t", (1,))
            yield env.timeout(10)
            locks.release_all(1)

        def second():
            yield env.timeout(1)
            yield locks.acquire(2, "t", (1,))
            yield env.timeout(10)
            locks.release_all(2)

        env.process(first())
        env.process(second())
        env.run()
        assert san.waitfor.holders == {}
        assert san.waitfor.waits == {}

    def test_waitfor_cycle_path_shape(self):
        graph = WaitForGraph()
        graph.on_granted(0, ("a", (1,)), 10)
        graph.on_granted(0, ("b", (1,)), 20)
        assert graph.on_wait(0, ("b", (1,)), 10) is None
        cycle = graph.on_wait(0, ("a", (1,)), 20)
        assert cycle == [(20, (0, ("a", (1,)))), (10, (0, ("b", (1,))))]
        # The rejected wait was not recorded.
        assert 20 not in graph.waits


# ----------------------------------------------------------------------
# Runtime: payload fingerprinting
# ----------------------------------------------------------------------
class TestRuntimeMutation:
    def build_net(self):
        env = Environment()
        san = Sanitizer(env).install()
        net = Network(env)
        net.add_endpoint("a", "r1", handler=lambda message: None)
        net.add_endpoint("b", "r1", handler=lambda message: None)
        net.set_link("a", "b", latency_ns=1000)
        return env, san, net

    def test_mutation_after_send_flagged_with_attribution(self):
        env, san, net = self.build_net()
        rows = [("k1", "v1")]
        net.send("a", "b", payload=("redo_batch", "a", rows), size_bytes=64)
        rows.append(("k2", "v2"))  # mutate while in flight
        env.run()
        assert san.report.count("mutation-after-send") == 1
        finding = san.report.findings[0]
        details = dict(finding.details)
        assert details["src"] == "a" and details["dst"] == "b"
        assert details["payload"] == "redo_batch"
        assert "redo_batch" in finding.message

    def test_unmutated_payload_clean(self):
        env, san, net = self.build_net()
        rows = [("k1", "v1")]
        net.send("a", "b", payload=("redo_batch", "a", rows), size_bytes=64)
        env.run()
        rows.append(("k2", "v2"))  # after delivery: fine
        assert san.report.findings == []
        assert san.messages_checked == 1

    def test_rpc_reply_event_state_is_opaque(self):
        # RPC replies carry the caller's pending Event, whose triggered
        # state flips in flight by design — must not be flagged.
        env, san, net = self.build_net()
        replies = []

        def handler(message):
            message.payload.reply("pong")

        net.set_handler("b", handler)

        def caller():
            value = yield net.request("a", "b", body=("ping",))
            replies.append(value)

        env.process(caller())
        env.run()
        assert replies == ["pong"]
        assert san.report.findings == []

    def test_deliveries_landing_at_one_instant_each_checked(self):
        # Zero transmission time lands two back-to-back sends at the same
        # instant; they are two deliveries and both payloads are verified.
        env, san, net = self.build_net()
        net.set_link("a", "b", latency_ns=1000, bandwidth_bps=0)
        rows = [1]
        net.send("a", "b", payload=("batch", rows), size_bytes=64)
        net.send("a", "b", payload=("batch", [2]), size_bytes=64)
        rows.append(99)
        env.run()
        assert san.messages_checked == 2
        assert san.report.count("mutation-after-send") == 1


class TestFingerprint:
    def test_dict_order_independent(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_set_order_independent(self):
        assert fingerprint({3, 1, 2}) == fingerprint({2, 3, 1})

    def test_value_change_changes_fingerprint(self):
        assert fingerprint([1, 2]) != fingerprint([1, 3])

    def test_type_distinguished(self):
        assert fingerprint((1, 2)) != fingerprint([1, 2])
        assert fingerprint("1") != fingerprint(1)

    def test_depth_cap_consistent(self):
        nested: list = []
        tail = nested
        for _ in range(50):
            inner: list = []
            tail.append(inner)
            tail = inner
        assert fingerprint(nested) == fingerprint(nested)
        assert "<deep>" in canonical(nested)

    def test_dataclass_fields_covered(self):
        # Slotted redo records are what actually ships on the wire; a row
        # change must change the fingerprint.
        from repro.storage.redo import RedoInsert
        record_a = RedoInsert(1, table="t", key=(1,), row={"c": "x"})
        record_b = RedoInsert(1, table="t", key=(1,), row={"c": "y"})
        assert fingerprint(record_a) != fingerprint(record_b)


# ----------------------------------------------------------------------
# Install gating & CLI
# ----------------------------------------------------------------------
class TestInstall:
    def test_maybe_install_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAN", raising=False)
        env = Environment()
        assert maybe_install(env) is None
        assert env.san is None

    def test_maybe_install_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAN", "1")
        env = Environment()
        san = maybe_install(env)
        assert isinstance(san, Sanitizer)
        assert env.san is san
        assert maybe_install(env) is san  # idempotent

    def test_explicit_zero_is_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAN", "0")
        env = Environment()
        assert maybe_install(env) is None


class TestSanCli:
    def test_exit_1_on_each_fixture(self, tmp_path):
        fixtures = {
            "SIM107": """
def path_a(locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    yield locks.acquire(txid, "district", 2)

def path_b(locks, txid):
    yield locks.acquire(txid, "district", 2)
    yield locks.acquire(txid, "warehouse", 1)
""",
            "SIM108": """
def ship(network, dst, rows):
    network.send("cn", dst, payload=("redo", rows), size_bytes=10)
    rows.append("late")
""",
            "SIM109": """
def handle_update(env, locks, txid):
    yield locks.acquire(txid, "warehouse", 1)
    yield env.timeout(5)
""",
            "SIM110": TestSim110.POSITIVE,
        }
        for code, source in fixtures.items():
            target = tmp_path / f"fixture_{code.lower()}.py"
            target.write_text(source, encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, "-m", "repro.lint", "san", "--no-smoke",
                 str(target)],
                capture_output=True, text=True)
            assert proc.returncode == 1, (code, proc.stdout, proc.stderr)
            assert code in proc.stdout
            target.unlink()

    def test_json_artifact_written(self, tmp_path):
        fixture = tmp_path / "fixture.py"
        fixture.write_text("""
def ship(network, dst, rows):
    network.send("cn", dst, payload=("redo", rows), size_bytes=10)
    rows.append("late")
""", encoding="utf-8")
        artifact = tmp_path / "findings.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "san", "--no-smoke",
             "--json", str(artifact), str(fixture)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        data = json.loads(artifact.read_text(encoding="utf-8"))
        assert data["ok"] is False
        assert [finding["rule"] for finding in data["static"]] == ["SIM108"]


class TestSanitizedSmoke:
    def test_sanitized_smoke_clean_and_digest_unchanged(self):
        from repro.lint.determinism import smoke_run

        plain = smoke_run(duration_s=0.05, warmup_s=0.02)
        sanitized = smoke_run(duration_s=0.05, warmup_s=0.02, sanitize=True)
        assert sanitized["san_findings"] == []
        assert sanitized["san_messages_checked"] > 0
        # A clean sanitized run is bit-identical to the plain run: the
        # sanitizer observes, it never schedules.
        assert sanitized["digest"] == plain["digest"]


class TestRepoIsSanClean:
    def test_interprocedural_rules_clean_on_src(self):
        import os

        import repro

        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        findings = lint_paths([src_dir])
        assert findings == []

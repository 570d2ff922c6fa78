"""README documents these CLI subcommands; each runs here exactly as
written there (``python -m ...``), in a subprocess."""

import json
import os
import subprocess
import sys

from repro.chaos.nemeses import available_nemeses
from repro.lint.rules import default_rules
from repro.obs import Tracer

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def run_module(*argv, cwd=None) -> str:
    """Run ``python -m argv...``; assert exit 0 and return stdout."""
    path = [REPO_SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-m", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_check_list_names_every_nemesis():
    assert run_module("repro.check", "list").split() == available_nemeses()


def test_lint_list_rules_names_every_rule():
    lines = run_module("repro.lint", "--list-rules").splitlines()
    assert [line.split()[0] for line in lines] == [
        rule.code for rule in default_rules()]
    assert all(f"{rule.name}: {rule.description}" in line
               for rule, line in zip(default_rules(), lines))


class _Clock:
    now = 0


def test_obs_convert_writes_a_chrome_trace(tmp_path):
    tracer = Tracer(_Clock())
    tracer.complete("txn", "commit", 1_000, 5_000, track="cn0", txid=7)
    tracer.complete("net", "send", 2_000, 2_000, track="dn1")
    tracer.to_jsonl(str(tmp_path / "trace.jsonl"))
    out = run_module("repro.obs", "convert", "trace.jsonl", "trace.json",
                     cwd=tmp_path)
    payload = json.loads((tmp_path / "trace.json").read_text())
    assert payload == tracer.chrome_trace()
    assert out.strip() == (f"wrote trace.json "
                           f"({len(payload['traceEvents'])} events)")
    spans = [e for e in payload["traceEvents"] if e["ph"] in ("X", "i")]
    assert [(e["name"], e["ts"]) for e in spans] == [("commit", 1.0),
                                                     ("send", 2.0)]

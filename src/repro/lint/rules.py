"""The simlint rule framework: findings, the rule registry, and the engine.

A *rule* inspects one parsed module and yields :class:`Finding`s. Rules are
plain classes registered with :func:`register`; the registry is what the CLI
enumerates, what ``--select``/``--ignore`` filter, and what third-party
extensions (in-repo tooling) can append to.

The engine (:func:`lint_source` / :func:`lint_paths`) parses each file once,
builds a shared :class:`Module` context, runs every active rule, then drops
findings suppressed by a ``# simlint: ignore[...]`` pragma (see
:mod:`repro.lint.pragmas`).
"""

from __future__ import annotations

import ast
import os
import typing
from dataclasses import dataclass, field

from repro.lint.pragmas import Suppressions, parse_pragmas


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str       #: rule code, e.g. ``"SIM103"``
    path: str       #: file path as given to the engine
    line: int       #: 1-based line number
    col: int        #: 0-based column offset
    message: str    #: human-readable explanation with a fix hint

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path.replace(os.sep, "/"),
                "line": self.line, "col": self.col, "message": self.message}


@dataclass
class Module:
    """Everything a rule needs about one source file."""

    path: str
    source: str
    tree: ast.Module
    name: str                       #: dotted module name, e.g. ``repro.storage.heap``
    suppressions: Suppressions = field(default_factory=Suppressions)

    @classmethod
    def from_source(cls, source: str, path: str,
                    name: str | None = None) -> "Module":
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, tree=tree,
                   name=name if name is not None else module_name_for(path),
                   suppressions=parse_pragmas(source))


def module_name_for(path: str) -> str:
    """Derive a dotted module name from a file path (``src/`` layout aware).

    ``src/repro/storage/heap.py`` -> ``repro.storage.heap``;
    paths outside a recognisable package root fall back to the stem.
    """
    normalized = path.replace(os.sep, "/")
    parts = [part for part in normalized.split("/") if part not in ("", ".")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in ("src", "lib"):
        if anchor in parts:
            parts = parts[parts.index(anchor) + 1:]
            break
    else:
        # Keep only the trailing run that looks like package segments.
        for i in range(len(parts) - 1, -1, -1):
            if not parts[i].isidentifier():
                parts = parts[i + 1:]
                break
    return ".".join(parts) if parts else normalized


class Rule:
    """Base class for simlint rules.

    Subclasses set ``code`` / ``name`` / ``description`` and implement
    :meth:`check`. One instance is created per lint run (not per file), so
    rules may carry configuration (e.g. module allowlists) but must not
    accumulate per-file state across :meth:`check` calls.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, module: Module) -> typing.Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(rule=self.code, path=module.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), message=message)


@dataclass
class Project:
    """Every parsed module of one lint run, shared by project rules.

    ``cache`` lets interprocedural rules share expensive artifacts (the
    call-graph index, function summaries) within a single run instead of
    rebuilding them per rule.
    """

    modules: list[Module]
    cache: dict = field(default_factory=dict)


class ProjectRule(Rule):
    """A rule that analyses the whole project at once.

    The engine never calls its per-module :meth:`check`; it calls
    :meth:`check_project` exactly once per run with every parsed module.
    Findings still carry a (path, line) location, so per-line pragmas
    apply unchanged.
    """

    def check_project(self, project: Project) -> typing.Iterator[Finding]:
        raise NotImplementedError


#: code -> rule class. Populated by :func:`register` (the built-in rules in
#: :mod:`repro.lint.visitors` register on import).
REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (last wins per code)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    REGISTRY[cls.code] = cls
    return cls


def default_rules(select: typing.Collection[str] | None = None,
                  ignore: typing.Collection[str] = ()) -> list[Rule]:
    """Instantiate the registered rules, optionally filtered by code."""
    # Import for the side effect of registering the built-in rules.
    from repro.lint import interproc, visitors  # noqa: F401
    codes = sorted(REGISTRY)
    if select:
        unknown = set(select) - set(codes)
        if unknown:
            raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
        codes = [code for code in codes if code in set(select)]
    codes = [code for code in codes if code not in set(ignore)]
    return [REGISTRY[code]() for code in codes]


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def _run_rules(modules: list[Module],
               rules: typing.Sequence[Rule]) -> list[Finding]:
    """Run per-module rules on each module and project rules once, then
    drop pragma-suppressed findings. Unsorted — callers sort exactly once."""
    module_rules = [rule for rule in rules if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    findings: list[Finding] = []
    for module in modules:
        for rule in module_rules:
            findings.extend(rule.check(module))
    if project_rules:
        project = Project(modules)
        for rule in project_rules:
            findings.extend(rule.check_project(project))
    suppressions = {module.path: module.suppressions for module in modules}
    kept = []
    for finding in findings:
        covered = suppressions.get(finding.path)
        if covered is not None and covered.covers(finding.line, finding.rule):
            continue
        kept.append(finding)
    return kept


def lint_source(source: str, path: str = "<string>",
                rules: typing.Sequence[Rule] | None = None,
                module_name: str | None = None) -> list[Finding]:
    """Lint one source string; returns pragma-filtered, sorted findings.

    A syntax error becomes a single ``SIM100`` finding rather than an
    exception, so one broken file cannot hide findings in the rest of a run.
    Project rules see a single-module project, so the interprocedural rules
    still work on self-contained fixtures.
    """
    if rules is None:
        rules = default_rules()
    try:
        module = Module.from_source(source, path, name=module_name)
    except SyntaxError as exc:
        return [Finding(rule="SIM100", path=path, line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                        message=f"syntax error: {exc.msg}")]
    findings = _run_rules([module], rules)
    findings.sort(key=lambda finding: finding.sort_key)
    return findings


def iter_python_files(paths: typing.Iterable[str]) -> typing.Iterator[str]:
    """Expand files/directories into a deterministic .py file list.

    Deduplicated by ``os.path.realpath``: a file passed both directly and
    via a parent directory (or reached twice through symlinks) is yielded
    once, under the first spelling seen.
    """
    seen: set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(name for name in dirnames
                                     if name != "__pycache__"
                                     and not name.startswith("."))
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        filepath = os.path.join(dirpath, filename)
                        real = os.path.realpath(filepath)
                        if real not in seen:
                            seen.add(real)
                            yield filepath
        else:
            real = os.path.realpath(path)
            if real not in seen:
                seen.add(real)
                yield path


def lint_paths(paths: typing.Iterable[str],
               rules: typing.Sequence[Rule] | None = None) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` as one project.

    All files parse first so project rules (SIM107–SIM110) see the whole
    call graph; findings are collected unsorted and sorted exactly once at
    the end (``lint_source`` used to sort per file *and* this function
    re-sorted the concatenation).
    """
    if rules is None:
        rules = default_rules()
    findings: list[Finding] = []
    modules: list[Module] = []
    for filepath in iter_python_files(paths):
        try:
            with open(filepath, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            findings.append(Finding(rule="SIM100", path=filepath, line=1,
                                    col=0, message=f"cannot read file: {exc}"))
            continue
        try:
            modules.append(Module.from_source(source, filepath))
        except SyntaxError as exc:
            findings.append(Finding(
                rule="SIM100", path=filepath, line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}"))
    findings.extend(_run_rules(modules, rules))
    findings.sort(key=lambda finding: finding.sort_key)
    return findings

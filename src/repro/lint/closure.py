"""The cross-file closure rules.

Registries anchor runtime guarantees; these passes close them
statically, so deleting a registry entry (or adding an unregistered
publisher) fails lint instead of failing — or worse, silently skewing —
a simulator run:

* every raw cycle category charged to the ledger appears in the
  ``CATEGORIES`` table of ``obs/taxonomy.py`` (what
  :class:`AttributionError` polices at runtime, on the paths a run
  happens to exercise), and every raw category there is charged;
* every event name published into the tracer or counted by the
  hardware monitor appears in the ``EVENTS`` table of
  ``obs/taxonomy.py``;
* every invariant defined in ``check/invariants.py`` is registered in
  the ``full_sweep`` suite;
* every experiment spec in the ``SPECS`` registry of
  ``analysis/specs.py`` has a benchmark consumer asserting its paper
  shape and a row in the repo's EXPERIMENTS.md table;
* the trajectory layer's remaining literal tables agree with the facts
  they name outside the taxonomy: ledger fields with the bench-record
  schema, host-profile groups with real package paths.

Every other category or event list is derived from the taxonomy
tables at import time, so there is no copy left to drift.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.base import (
    FileContext,
    ProjectRule,
    dotted_name,
    receiver_tail,
    str_const,
)

ProjectReport = Callable[[FileContext, ast.AST, str], None]


def _find_context(
    contexts: List[FileContext], rel_suffix: str
) -> Optional[FileContext]:
    for ctx in contexts:
        if ctx.rel.endswith(rel_suffix):
            return ctx
    return None


def _assigned_value(tree: ast.Module, name: str) -> Optional[ast.expr]:
    """The value of a module-level ``NAME = ...`` assignment."""
    for node in tree.body:
        target: Optional[ast.expr]
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == name:
            return value
    return None


def _dict_literal_keys(
    tree: ast.Module, name: str
) -> Optional[Dict[str, ast.AST]]:
    """String keys of a module-level ``NAME = {...}`` dict literal."""
    value = _assigned_value(tree, name)
    if not isinstance(value, ast.Dict):
        return None
    out: Dict[str, ast.AST] = {}
    for key in value.keys:
        literal = str_const(key) if key is not None else None
        if literal is not None:
            out[literal] = key
    return out


def _category_raws(
    tree: ast.Module, name: str
) -> Optional[Dict[str, ast.AST]]:
    """Raw categories of ``NAME = {category: (colour, (raw, ...))}``."""
    value = _assigned_value(tree, name)
    if not isinstance(value, ast.Dict):
        return None
    out: Dict[str, ast.AST] = {}
    for entry in value.values:
        if not (
            isinstance(entry, ast.Tuple)
            and len(entry.elts) == 2
            and isinstance(entry.elts[1], ast.Tuple)
        ):
            return None
        for raw in entry.elts[1].elts:
            literal = str_const(raw)
            if literal is not None:
                out[literal] = raw
    return out


def _tuple_literal(
    tree: ast.Module, name: str
) -> Optional[List[Tuple[str, ast.AST]]]:
    """String elements of a module-level ``NAME = (...)`` tuple literal.

    For tuples of tuples (``KERNEL_GROUPS``-style pair tables), the
    *first* string element of each inner tuple is yielded.
    """
    value = _assigned_value(tree, name)
    if not isinstance(value, ast.Tuple):
        return None
    out: List[Tuple[str, ast.AST]] = []
    for element in value.elts:
        if isinstance(element, ast.Tuple) and element.elts:
            literal = str_const(element.elts[0])
        else:
            literal = str_const(element)
        if literal is not None:
            out.append((literal, element))
    return out


# -- ledger taxonomy ---------------------------------------------------------


def _charge_sites(ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
    """``(node, category)`` for every literal ledger charge.

    Matches ``<...>.clock.add(x, "cat")`` / ``ledger.add(x, "cat")``
    positionally or via ``category=``, plus a ``category="cat"``
    keyword on any call (the page allocator's ``clear_page`` threads
    the category through).
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        is_ledger_add = (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "add"
            and receiver_tail(node.func.value) in ("clock", "ledger")
        )
        if is_ledger_add and len(node.args) >= 2:
            literal = str_const(node.args[1])
            if literal is not None:
                yield node, literal
                continue
        for keyword in node.keywords:
            if keyword.arg == "category":
                literal = str_const(keyword.value)
                if literal is not None:
                    yield node, literal


class LedgerTaxonomyRule(ProjectRule):
    id = "ledger-taxonomy"
    description = (
        "every cycle category charged to the ledger is covered by the "
        "CATEGORIES table of obs/taxonomy.py (and vice versa)"
    )

    #: File that owns the taxonomy, relative to the package root.
    REGISTRY = "obs/taxonomy.py"
    REGISTRY_NAME = "CATEGORIES"
    #: The profiler's explicit catch-all output category.
    FALLBACK = "other"

    def check_project(
        self, contexts: List[FileContext], report: ProjectReport
    ) -> None:
        sites = [
            (ctx, node, category)
            for ctx in contexts
            for node, category in _charge_sites(ctx)
        ]
        registry_ctx = _find_context(contexts, self.REGISTRY)
        if registry_ctx is None:
            if sites:
                ctx, node, _category = sites[0]
                report(
                    ctx, node,
                    f"cycle categories are charged but no "
                    f"{self.REGISTRY} defines {self.REGISTRY_NAME}",
                )
            return
        keys = _category_raws(registry_ctx.tree, self.REGISTRY_NAME)
        if keys is None:
            report(
                registry_ctx, registry_ctx.tree,
                f"{self.REGISTRY_NAME} in {self.REGISTRY} must be a "
                "literal dict of path-category -> (colour, (raw "
                "category, ...)) tuples",
            )
            return
        charged = set()
        for ctx, node, category in sites:
            charged.add(category)
            if category not in keys and category != self.FALLBACK:
                report(
                    ctx, node,
                    f"cycle category {category!r} is not in the "
                    f"profiler taxonomy ({self.REGISTRY_NAME}); the "
                    "attribution would silently lump it into "
                    f"{self.FALLBACK!r}",
                )
        for category, key_node in keys.items():
            if category not in charged:
                report(
                    registry_ctx, key_node,
                    f"taxonomy entry {category!r} is never charged to "
                    "the ledger anywhere; delete it or charge it",
                )


# -- event registry ----------------------------------------------------------


def _publish_sites(
    ctx: FileContext,
) -> Iterator[Tuple[ast.AST, Optional[str], Optional[str]]]:
    """``(node, literal_name, fstring_prefix)`` for event publishers.

    Covers tracer publications (``<...>.tracer.instant/complete/
    counter``) and hardware-monitor counts (``<...>.monitor.count``).
    For f-string names, the literal prefix is returned instead (matched
    against wildcard registry entries).
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        tail = receiver_tail(node.func.value)
        is_tracer_pub = (
            tail == "tracer"
            and node.func.attr in ("instant", "complete", "counter")
        )
        is_monitor_count = tail == "monitor" and node.func.attr == "count"
        if not (is_tracer_pub or is_monitor_count) or not node.args:
            continue
        name_arg = node.args[0]
        literal = str_const(name_arg)
        if literal is not None:
            yield node, literal, None
        elif isinstance(name_arg, ast.JoinedStr) and name_arg.values:
            prefix = str_const(name_arg.values[0])
            yield node, None, prefix  # prefix may be None: dynamic name
        # Plain variables (e.g. the monitor re-publishing its filtered
        # event stream) are covered at their own literal callsites.


class EventRegistryRule(ProjectRule):
    id = "event-registry"
    description = (
        "every event name published to the tracer or monitor exists "
        "in the EVENTS table of obs/taxonomy.py"
    )

    REGISTRY = "obs/taxonomy.py"
    REGISTRY_NAME = "EVENTS"

    def check_project(
        self, contexts: List[FileContext], report: ProjectReport
    ) -> None:
        sites = [
            (ctx, node, literal, prefix)
            for ctx in contexts
            for node, literal, prefix in _publish_sites(ctx)
        ]
        registry_ctx = _find_context(contexts, self.REGISTRY)
        if registry_ctx is None:
            if sites:
                ctx, node, _literal, _prefix = sites[0]
                report(
                    ctx, node,
                    f"events are published but no {self.REGISTRY} "
                    f"defines {self.REGISTRY_NAME}",
                )
            return
        keys = _dict_literal_keys(registry_ctx.tree, self.REGISTRY_NAME)
        if keys is None:
            report(
                registry_ctx, registry_ctx.tree,
                f"{self.REGISTRY_NAME} in {self.REGISTRY} must be a "
                "literal dict keyed by event name",
            )
            return
        exact = {key for key in keys if not key.endswith("*")}
        wildcards = [key[:-1] for key in keys if key.endswith("*")]
        for ctx, node, literal, prefix in sites:
            if literal is not None:
                if literal in exact or any(
                    literal.startswith(stem) for stem in wildcards
                ):
                    continue
                report(
                    ctx, node,
                    f"event name {literal!r} is not in the "
                    f"{self.REGISTRY_NAME} registry of {self.REGISTRY}",
                )
            elif prefix is None:
                report(
                    ctx, node,
                    "event name is built dynamically with no literal "
                    "prefix; registry closure cannot cover it",
                )
            elif not any(
                prefix.startswith(stem) or stem.startswith(prefix)
                for stem in wildcards
            ):
                report(
                    ctx, node,
                    f"f-string event name with prefix {prefix!r} has no "
                    f"matching wildcard entry in {self.REGISTRY_NAME} "
                    "(add e.g. "
                    f"'{prefix}*')",
                )


# -- invariant registration --------------------------------------------------


class InvariantRegistrationRule(ProjectRule):
    id = "invariant-registration"
    description = (
        "every check_* invariant defined in check/invariants.py is "
        "called from the full_sweep suite"
    )

    REGISTRY = "check/invariants.py"
    SUITE = "full_sweep"
    PREFIX = "check_"

    def check_project(
        self, contexts: List[FileContext], report: ProjectReport
    ) -> None:
        ctx = _find_context(contexts, self.REGISTRY)
        if ctx is None:
            return
        invariants = [
            node
            for node in ctx.tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith(self.PREFIX)
        ]
        suite = next(
            (
                node
                for node in ctx.tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == self.SUITE
            ),
            None,
        )
        if suite is None:
            if invariants:
                report(
                    ctx, invariants[0],
                    f"invariants are defined but {self.REGISTRY} has no "
                    f"{self.SUITE}() suite to register them in",
                )
            return
        called = {
            dotted_name(node.func)
            for node in ast.walk(suite)
            if isinstance(node, ast.Call)
        }
        for invariant in invariants:
            if invariant.name not in called:
                report(
                    ctx, invariant,
                    f"invariant {invariant.name}() is defined but never "
                    f"called from {self.SUITE}(); it would silently "
                    "not run",
                )


# -- experiment registry -----------------------------------------------------


class ExperimentRegistryRule(ProjectRule):
    id = "experiment-registry"
    description = (
        "every experiment spec id in analysis/specs.py has a "
        "benchmarks/test_bench_*.py consumer and an EXPERIMENTS.md row"
    )

    REGISTRY = "analysis/specs.py"
    REGISTRY_NAME = "SPECS"
    BENCH_DIR = "benchmarks"
    BENCH_GLOB = "test_bench_*.py"
    DOC = "EXPERIMENTS.md"
    #: An EXPERIMENTS.md table row whose first cell names an experiment,
    #: e.g. ``| E8 (§7) | ... |``.
    _DOC_ROW = re.compile(r"^\|\s*(E\d+)\b")

    def check_project(
        self, contexts: List[FileContext], report: ProjectReport
    ) -> None:
        registry_ctx = _find_context(contexts, self.REGISTRY)
        if registry_ctx is None:
            return
        keys = _dict_literal_keys(registry_ctx.tree, self.REGISTRY_NAME)
        if keys is None:
            report(
                registry_ctx, registry_ctx.tree,
                f"{self.REGISTRY_NAME} in {self.REGISTRY} must be a "
                "literal dict of experiment-id -> spec entries",
            )
            return
        repo_root = self._repo_root(registry_ctx.path)
        if repo_root is None:
            # Scanned tree is a bare package (the mutation tests lint
            # such copies): with no benchmarks/ + EXPERIMENTS.md beside
            # it there is nothing to close over.
            return
        bench_ids = self._bench_literals(repo_root / self.BENCH_DIR)
        doc_ids = self._documented_ids(repo_root / self.DOC)
        for experiment_id, key_node in keys.items():
            if experiment_id not in bench_ids:
                report(
                    registry_ctx, key_node,
                    f"spec {experiment_id!r} has no "
                    f"{self.BENCH_DIR}/{self.BENCH_GLOB} consumer; "
                    "nothing asserts its paper shape",
                )
            if experiment_id not in doc_ids:
                report(
                    registry_ctx, key_node,
                    f"spec {experiment_id!r} has no row in {self.DOC}; "
                    "the paper-vs-measured table is stale",
                )
        for doc_id in sorted(doc_ids - set(keys)):
            report(
                registry_ctx, registry_ctx.tree,
                f"{self.DOC} documents {doc_id!r}, which is not in the "
                f"{self.REGISTRY_NAME} registry; delete the stale row",
            )

    def _repo_root(self, registry_path: pathlib.Path) -> Optional[pathlib.Path]:
        """Nearest ancestor holding both benchmarks/ and EXPERIMENTS.md."""
        for candidate in registry_path.resolve().parents:
            if (
                (candidate / self.BENCH_DIR).is_dir()
                and (candidate / self.DOC).is_file()
            ):
                return candidate
        return None

    def _bench_literals(self, bench_dir: pathlib.Path) -> Set[str]:
        """Every string literal in the benchmark files.

        The consumer contract is ``run_spec(benchmark, "E8")``, but any
        literal mention counts — the rule polices existence of a
        consumer, not its calling convention.
        """
        literals: Set[str] = set()
        for path in sorted(bench_dir.glob(self.BENCH_GLOB)):
            try:
                tree = ast.parse(path.read_text())
            except SyntaxError:
                continue  # the file-parses rule owns unparsable files
            for node in ast.walk(tree):
                literal = str_const(node)
                if literal is not None:
                    literals.add(literal)
        return literals

    def _documented_ids(self, doc_path: pathlib.Path) -> Set[str]:
        ids: Set[str] = set()
        for line in doc_path.read_text().splitlines():
            match = self._DOC_ROW.match(line)
            if match is not None:
                ids.add(match.group(1))
        return ids


# -- observatory closure -----------------------------------------------------


class ObservatoryClosureRule(ProjectRule):
    id = "observatory-closure"
    description = (
        "the trajectory layer's literal tables stay in sync with what "
        "they name: ledger fields with the bench-record schema, "
        "host-profile groups with real package paths"
    )

    METRICS = "obs/metrics.py"
    HISTORY = "obs/history.py"
    HOSTPROF = "obs/hostprof.py"

    def check_project(
        self, contexts: List[FileContext], report: ProjectReport
    ) -> None:
        self._check_history_fields(contexts, report)
        self._check_hostprof(contexts, report)

    def _check_history_fields(
        self, contexts: List[FileContext], report: ProjectReport
    ) -> None:
        history_ctx = _find_context(contexts, self.HISTORY)
        metrics_ctx = _find_context(contexts, self.METRICS)
        if history_ctx is None or metrics_ctx is None:
            return
        required = _tuple_literal(metrics_ctx.tree, "RECORD_REQUIRED")
        fields = _tuple_literal(history_ctx.tree, "RECORD_FIELDS")
        if required is None:
            report(
                metrics_ctx, metrics_ctx.tree,
                "RECORD_REQUIRED in obs/metrics.py must be a literal "
                "tuple of record field names",
            )
            return
        if fields is None:
            report(
                history_ctx, history_ctx.tree,
                "RECORD_FIELDS in obs/history.py must be a literal "
                "tuple of record field names",
            )
            return
        known = {name for name, _node in required}
        for name, node in fields:
            if name not in known:
                report(
                    history_ctx, node,
                    f"ledger field {name!r} is not in RECORD_REQUIRED of "
                    f"{self.METRICS}; entry_from_doc would KeyError on "
                    "the first real record",
                )

    def _check_hostprof(
        self, contexts: List[FileContext], report: ProjectReport
    ) -> None:
        ctx = _find_context(contexts, self.HOSTPROF)
        if ctx is None:
            return
        groups = _tuple_literal(ctx.tree, "KERNEL_GROUPS")
        if groups is None:
            report(
                ctx, ctx.tree,
                "KERNEL_GROUPS in obs/hostprof.py must be a literal "
                "tuple of (path fragment, group) pairs",
            )
            return
        # hostprof.py sits at <package>/obs/hostprof.py; fragments are
        # rooted one level above the package ("repro/hw/tlb.py").
        package_dir = ctx.path.resolve().parent.parent
        root = package_dir.parent
        for fragment, node in groups:
            target = root / fragment
            if fragment.endswith("/"):
                ok = target.is_dir()
            else:
                ok = target.is_file()
            if not ok:
                report(
                    ctx, node,
                    f"host-profile group path {fragment!r} does not "
                    "exist under the package; the attribution would "
                    "silently stop matching",
                )

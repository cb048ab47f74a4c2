"""Every definition in ``src/repro`` has a caller outside the tests.

A definition earns its place when a registered experiment, the CLI or
an example reaches it.  One AST scan over ``src/repro`` (``__init__.py``
re-exports excluded) and ``examples/`` finds the definitions nothing
reaches:

* the roots are the module-level code of every scanned module and all
  of the examples;
* a top-level function or class is named by a ``Name`` load, an
  attribute, an import alias or an identifier string;
* a method is named only by an attribute or an identifier string, so
  a local variable called ``search`` does not reach ``Tool.search``;
  a method goes with its class, and dunder methods live as long as
  their class does;
* a definition's own code is not its caller, and a class's methods
  are not callers of the class, so a method ``utilization`` that calls
  ``self.busy.utilization`` or a protocol whose methods name their
  class does not keep itself;
* the scan works by elimination, like reference counting: every
  definition starts alive, and one that no live code names is dropped
  until nothing changes.  Code named only by dead code is dead too.
  A longer cycle of names still keeps itself, so the scan can miss
  dead code, but it never drops code that live code names.

:data:`ALLOWED` lists the definitions without a caller that stay on
purpose, each with its reason.  A listed definition that is gone, or
that has gained a caller, fails the test as well, so the list can only
shrink.
"""

import ast
import collections
import functools
import pathlib
from typing import Dict, Iterable, List, NamedTuple, Optional, Set

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src"

_PERFBENCH = ("perfbench's layer table wraps it; perfbench.layers.install "
              "raises without it")
_DIRECTION_1 = ("ROADMAP direction 1 wires it into the bounds experiment's "
                "checks, which changes that payload")

#: Definitions no experiment, CLI path or example calls, kept on purpose.
ALLOWED: Dict[str, str] = {
    "repro.testbed.channel:Channel.send_trains_batch": _PERFBENCH,
    "repro.testbed.channel:SimulatedWlanChannel.send_train_sequence":
        _PERFBENCH + " (with the TrainSequence it takes)",
    "repro.traffic.generators:TraceGenerator": _PERFBENCH,
    "repro.runtime.registry:unregister":
        "test seam: tests remove the experiments they register",
    "repro.runtime.faults:injected":
        "test seam: scopes a fault plan to one block of a test",
    "repro.mac.scenario:StationResult.queue_size_at":
        "reference the tests compare the recorded queue traces against",
    "repro.analytic.rate_response:csma_rate_response":
        "reference the tests compare simulated rate responses against",
    "repro.mac.params:PhyParams.dot11g": "fixture: the tests' second PHY",
    "repro.sim.engine:Simulator.schedule_after":
        "fixture: the engine benchmark schedules its ticks with it",
    "repro.stats.descriptive:bootstrap_ci":
        "ROADMAP direction 1 reports check margins as intervals with it",
    "repro.stats.descriptive:mean_confidence_interval":
        "ROADMAP direction 1 reports check margins as intervals with it",
    "repro.analytic.bounds:output_gap_bounds":
        "the paper's eqs. (27)/(29)/(30); " + _DIRECTION_1,
    "repro.core.dispersion:decompose_output_gap":
        "the paper's eq. (18); " + _DIRECTION_1,
    "repro.core.batch:RepetitionBatch":
        "the batch protocol the kernels' batch classes conform to and "
        "their docstrings cite",
}


class _Names(ast.NodeVisitor):
    """What one piece of code names, split by how methods may be named."""

    def __init__(self) -> None:
        self.loads: Set[str] = set()
        self.attributes: Set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loads.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.loads.update(alias.name for alias in node.names)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self.attributes.add(node.value)


def _names(nodes) -> _Names:
    names = _Names()
    for node in nodes:
        names.visit(node)
    return names


class _Definition(NamedTuple):
    """One top-level function or class, or one method."""

    name: str
    owner: Optional[str]    # the class key of a method, else None
    names: _Names           # what its own code names


#: The site key of the roots in :func:`_scan`'s ``supporters``.
_ROOTS = ""


@functools.lru_cache(maxsize=None)
def _scan():
    """Every definition, and the sites (definitions or the roots) that
    name each one."""
    definitions: Dict[str, _Definition] = {}
    roots = []
    for path in sorted(SOURCE_ROOT.joinpath("repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(SOURCE_ROOT).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions[f"{module}:{node.name}"] = _Definition(
                    node.name, None, _names([node]))
            elif isinstance(node, ast.ClassDef):
                key = f"{module}:{node.name}"
                rest = [*node.decorator_list, *node.bases, *node.keywords]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        definitions[f"{key}.{item.name}"] = _Definition(
                            item.name, key, _names([item]))
                    else:
                        rest.append(item)
                definitions[key] = _Definition(node.name, None, _names(rest))
            else:
                roots.append(node)
    roots += [ast.parse(path.read_text())
              for path in sorted(REPO_ROOT.joinpath("examples").glob("*.py"))]
    sites = {_ROOTS: _names(roots)}
    sites.update((key, definition.names)
                 for key, definition in definitions.items())
    by_attribute: Dict[str, Set[str]] = collections.defaultdict(set)
    by_load: Dict[str, Set[str]] = collections.defaultdict(set)
    for site, names in sites.items():
        for name in names.attributes:
            by_attribute[name].add(site)
        for name in names.loads:
            by_load[name].add(site)
    own: Dict[str, Set[str]] = collections.defaultdict(set)
    for key, definition in definitions.items():
        own[key].add(key)
        if definition.owner is not None:
            own[definition.owner].add(key)
    supporters = {
        key: (by_attribute[definition.name] | (
            by_load[definition.name] if definition.owner is None
            else set())) - own[key]
        for key, definition in definitions.items()}
    return definitions, supporters


def _alive(key: str, definition: _Definition,
           supporters: Dict[str, Set[str]], live: Set[str]) -> bool:
    """Whether live code (or a root) names ``definition``."""
    if definition.owner is not None:
        if definition.owner not in live:
            return False
        if definition.name.startswith("__") \
                and definition.name.endswith("__"):
            return True
    sites = supporters[key]
    return _ROOTS in sites or not sites.isdisjoint(live)


def dead_definitions(kept: Iterable[str] = ()) -> List[str]:
    """Definitions nothing live names, found by elimination.

    ``kept`` stay alive whatever names them.  Methods of a dead class
    are not listed: they go with the class.
    """
    definitions, supporters = _scan()
    kept = set(kept)
    live = set(definitions)
    while True:
        dead = {key for key in live - kept
                if not _alive(key, definitions[key], supporters, live)}
        if not dead:
            break
        live -= dead
    return sorted(key for key, definition in definitions.items()
                  if key not in live
                  and (definition.owner is None or definition.owner in live))


def test_every_definition_has_a_caller():
    unexplained = [key for key in dead_definitions(kept=ALLOWED)
                   if key not in ALLOWED]
    assert not unexplained, (
        "no experiment, CLI path or example calls these; delete them "
        "(with their tests), or add each to ALLOWED with its reason:\n  "
        + "\n  ".join(unexplained))


def test_allow_list_only_shrinks():
    definitions, _ = _scan()
    gone = [key for key in ALLOWED if key not in definitions]
    assert not gone, f"ALLOWED names definitions that are gone: {gone}"
    dead = set(dead_definitions())
    called = [key for key in ALLOWED if key not in dead]
    assert not called, (
        f"ALLOWED names definitions that now have a caller; remove "
        f"them from the list: {called}")

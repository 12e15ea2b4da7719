"""Acceptance criteria: one test per entry of the ``gwfield.selfcheck`` registry,
named ``test_criterion_<number>_<name>`` or ``test_invariant_<name>``.  Each
prints the entry's PASS/FAIL line (visible with ``pytest -s``), then asserts
every measurement against its bound and the run time against the budget.
A last test keeps every public function and class of the package in use.
"""

import ast
from pathlib import Path

from gwfield import selfcheck


def _acceptance_test(check):
    def test():
        result = selfcheck.run(check)
        print(result.line())
        assert not result.misses, f"{check.name} missed: " + "; ".join(map(str, result.misses))
        assert result.elapsed_s < check.budget_s, (
            f"{check.name} blew its {check.budget_s}s budget: {result.elapsed_s:.2f}s")
    return test


for _check in selfcheck.REGISTRY:
    _kind = "invariant" if _check.criterion is None else f"criterion_{_check.criterion}"
    _name = f"test_{_kind}_{_check.name.replace('-', '_')}"
    globals()[_name] = _acceptance_test(_check)


def test_registry_holds_each_criterion_once():
    assert sorted(c.criterion for c in selfcheck.REGISTRY if c.criterion is not None) == list(range(1, 11))
    assert [c.name for c in selfcheck.REGISTRY if c.criterion is None] == [
        "constants-identities", "plane-wave-orthogonality", "partial-wave-split", "dispersion-relation",
        "gradient-energy-split", "charge-positivity-contrast", "canonical-commutator"]
    assert len({c.name for c in selfcheck.REGISTRY}) == len(selfcheck.REGISTRY)


def test_every_public_name_has_a_reader_in_the_package():
    """A public top-level function or class is read somewhere in ``src/gwfield`` outside
    its own definition: a paper identity lives in the registry or a CLI step, or nowhere."""
    # perfbench/workloads.py calls it, and the benchmark changes only on its own (ROADMAP item 1)
    benchmark_only = {"time_averaged_current"}
    defined, reads = {}, []
    for path in sorted(Path(selfcheck.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defined[owner] = path.name
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    reads.append((owner, sub.id))
                elif isinstance(sub, ast.Attribute):
                    reads.append((owner, sub.attr))
    unread = {name: module for name, module in defined.items()
              if name not in benchmark_only and not any(read == name != owner for owner, read in reads)}
    assert not unread, f"public names nothing in the package reads: {unread}"

"""Acceptance criteria: one test per entry of the ``gwfield.selfcheck`` registry,
named ``test_criterion_<number>_<name>`` or ``test_invariant_<name>``.  Each
prints the entry's PASS/FAIL line (visible with ``pytest -s``), then asserts
every measurement against its bound and the run time against the budget.
"""

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
        "constants-identities", "plane-wave-orthogonality", "partial-wave-split"]
    assert len({c.name for c in selfcheck.REGISTRY}) == len(selfcheck.REGISTRY)

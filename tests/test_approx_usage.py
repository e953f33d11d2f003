"""Test-suite guard: a `pytest.approx` whose `rel` is below 1e-12 must also
give `abs`.  pytest's default `abs=1e-12` would otherwise set the tolerance
of every expected value below abs/rel (10 at rel=1e-13), so the check would
be looser than its `rel` says."""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
DEFAULT_ABS = 1e-12


def _tight_rel_without_abs(source: str) -> list[int]:
    """Line numbers of approx(...) calls with a literal rel < DEFAULT_ABS and no abs."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) != "approx":
            continue
        # approx(expected, rel=None, abs=None, nan_ok=False)
        given = dict(zip(("expected", "rel", "abs"), node.args))
        given.update((kw.arg, kw.value) for kw in node.keywords)
        if "rel" not in given or "abs" in given:
            continue
        try:
            rel = ast.literal_eval(given["rel"])
        except ValueError:
            continue
        if rel is not None and rel < DEFAULT_ABS:
            lines.append(node.lineno)
    return lines


def test_tight_rel_gives_abs():
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(TESTS.glob("*.py"))
        for line in _tight_rel_without_abs(path.read_text())
    ]
    assert offenders == []


def test_guard_sees_each_form():
    source = (
        "x == pytest.approx(1.0, rel=1e-13)\n"
        "x == approx(1.0, 1e-15)\n"
        "x == pytest.approx(1.0, rel=1e-13, abs=0.0)\n"
        "x == pytest.approx(1.0, 1e-13, 0.0)\n"
        "x == pytest.approx(1.0, rel=1e-9)\n"
        "x == pytest.approx(1.0, rel=tol)\n"
    )
    assert _tight_rel_without_abs(source) == [1, 2]

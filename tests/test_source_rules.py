"""Rules on the library's source that keep README's claims true.

README says that every Fp inversion is a call of ``bn254.fq_batch_inv``.
This module parses ``src/seqsig/*.py`` and finds each three-argument
``pow`` whose exponent is -1, a modular inversion, with the function that
holds it. Only ``bn254.fq_batch_inv`` and ``pks.coin_inverse``, which
inverts a verifier coin mod the group order, may hold one.

README also says that a record of another suite is refused in one place.
The same walk finds each ``raise CrossSuiteError``: only ``groups``, on
elements, and ``pks.check_rows``, on signatures and keys, may hold one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "seqsig"
INVERSION_SITES = {("bn254", "fq_batch_inv"), ("pks", "coin_inverse")}


def _sites(tree, is_site):
    """(name of the innermost enclosing function or None, line) of each node
    of tree that ``is_site`` holds for, in source order."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if is_site(node):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _is_inversion(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3):
        return False
    try:
        return ast.literal_eval(node.args[1]) == -1
    except ValueError:
        return False


def _raises_cross_suite(node):
    """``raise CrossSuiteError``, called or not, by its bare or dotted name."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
    return name == "CrossSuiteError"


def _inversions(tree):
    return _sites(tree, _is_inversion)


def _source_sites(is_site):
    """{(module, function)} of every site in ``src/seqsig/*.py``."""
    return {(path.stem, func) for path in sorted(SRC.glob("*.py"))
            for func, _ in _sites(ast.parse(path.read_text(), str(path)), is_site)}


def test_modular_inversions_are_in_their_two_sites():
    assert _source_sites(_is_inversion) == INVERSION_SITES


def test_cross_suite_errors_are_raised_by_elements_and_by_check_rows():
    sites = _source_sites(_raises_cross_suite)
    assert {module for module, _ in sites} == {"groups", "pks"}
    assert {site for site in sites if site[0] != "groups"} == {("pks", "check_rows")}


def test_the_scan_finds_an_inversion_wherever_it_is():
    """In a function, a method, a lambda's body and at module level, and
    not where the exponent is another value or pow has two arguments."""
    source = "\n".join([
        "def f(x, P):",
        "    return pow(x, -1, P)",
        "class C:",
        "    def g(self, x):",
        "        h = lambda y: pow(y, -1, 7)",
        "        return pow(x, (P + 1) // 4, P), pow(x, -2, 7), pow(x, -1)",
        "Y = pow(2, -1, 7)",
    ])
    assert _inversions(ast.parse(source)) == [("f", 2), ("g", 5), (None, 7)]


def test_the_scan_finds_a_cross_suite_raise_wherever_it_is():
    """Called or bare, by its own or a dotted name, in a function, a method
    and at module level; not another error, a bare re-raise or a call that
    is not raised."""
    source = "\n".join([
        "def f(a, b):",
        "    if a is not b:",
        "        raise CrossSuiteError('two suites')",
        "class C:",
        "    def g(self):",
        "        err = CrossSuiteError('kept')",
        "        try:",
        "            raise errors.CrossSuiteError",
        "        except ValueError:",
        "            raise",
        "        raise ValueError('other')",
        "raise CrossSuiteError",
    ])
    assert _sites(ast.parse(source), _raises_cross_suite) == [("f", 3), ("g", 8), (None, 12)]

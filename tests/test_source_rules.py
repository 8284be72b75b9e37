"""Rules on the library's source that keep README's claims true.

README says that every Fp inversion is a call of ``bn254.fq_batch_inv``.
This module parses ``src/seqsig/*.py`` and finds each three-argument
``pow`` whose exponent is -1, a modular inversion, with the function that
holds it. Only ``bn254.fq_batch_inv`` and ``pks.coin_inverse``, which
inverts a verifier coin mod the group order, may hold one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "seqsig"
INVERSION_SITES = {("bn254", "fq_batch_inv"), ("pks", "coin_inverse")}


def _inversions(tree):
    """(name of the innermost enclosing function or None, line) of each
    pow(., -1, .) in tree, in source order."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "pow" and len(node.args) == 3):
            try:
                exponent = ast.literal_eval(node.args[1])
            except ValueError:
                exponent = None
            if exponent == -1:
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_modular_inversions_are_in_their_two_sites():
    sites = {(path.stem, func) for path in sorted(SRC.glob("*.py"))
             for func, _ in _inversions(ast.parse(path.read_text(), str(path)))}
    assert sites == INVERSION_SITES


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

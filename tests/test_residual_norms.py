"""The one residual norm: the slab completion residual against its per-pair oracle,
identity checks without an SVD, and no SVD norm left in the library."""

import ast
from pathlib import Path

import numpy as np
import pytest

from oracle import completion_residual_pairs
from polyball.basis import Shape
from polyball.berezin import (
    InnerMultiplier,
    _completion_residual,
    _slab_residual,
    _sources,
    _validate_blocks,
    berezin_kernel,
    monomial_multiplier,
    multiplier_to_json,
    validate_multiplier,
)
from polyball.cli import main
from polyball.cp import tuple_to_json
from polyball.subspaces import compression_tuple, construct_mt, construct_nadic
from polyball.symmetric import (
    SymFockTruncation,
    coordinate_multiple_subspace,
    sym_monomial_multiplier,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "polyball"


def word_case():
    """The compression of a suffix subspace and the letter-1 monomial: completes exactly."""
    t = compression_tuple(construct_mt(construct_nadic(2, 0.5), 4))
    return berezin_kernel(t, (4,)), monomial_multiplier(Shape((2,)), 0, (1,))


def symmetric_case():
    """The compression of a coordinate multiple and its monomial: completes exactly."""
    sub = coordinate_multiple_subspace(SymFockTruncation(Shape((1, 1), caps=(4, 4))), 0, 1)
    kb = berezin_kernel(compression_tuple(sub), (4, 4), "symmetric")
    return kb, sym_monomial_multiplier(Shape((1, 1)), ((1,), (0,)))


def two_component_case():
    """Two symbol degrees, so a source grade feeds two target grades."""
    t = compression_tuple(construct_mt(construct_nadic(2, 0.25), 5))
    c1 = np.zeros((2, 1, 2), dtype=complex)
    c1[0, 0, 0] = 1.0
    c2 = np.zeros((4, 1, 2), dtype=complex)
    c2[1, 0, 1] = 1.0
    return berezin_kernel(t, (5,)), InnerMultiplier(Shape((2,)), 2, 1, {(1,): c1, (2,): c2}, isometric=True)


CASES = {"word": word_case, "symmetric": symmetric_case, "two-component": two_component_case}


@pytest.mark.parametrize("name", sorted(CASES))
def test_slab_completion_residual_matches_pair_oracle(name):
    kb, theta = CASES[name]()
    blocks = theta.materialize_blocks(kb.truncation.shape.caps)
    assert _completion_residual(kb, theta, blocks) == completion_residual_pairs(kb, theta, blocks) == 0.0


class CountingDict(dict):
    """A dict that counts its lookups by key."""

    lookups = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_completion_residual_lookups_are_linear_in_the_blocks():
    # the sources are read off the block keys, and each column grade visits only the sources that feed it:
    # on the compression tuple at caps (12, 12), 156 interior grades, no lookup is made per pair of grades
    caps = (12, 12)
    kb = berezin_kernel(compression_tuple(coordinate_multiple_subspace(SymFockTruncation(Shape((1, 1), caps=caps)),
                                                                      0, 1)), caps, "symmetric")
    theta = sym_monomial_multiplier(Shape((1, 1)), ((1,), (0,)))
    ft, blocks = kb.truncation, CountingDict(theta.materialize_blocks(caps))
    interior = theta.interior_grades(ft)
    sources = [CountingDict(outs) for outs in _sources(blocks, ft.grades, interior)]
    assert blocks.lookups <= len(blocks) and len(interior) == 156
    assert _slab_residual(ft.dim, interior, sources, kb.blocks) == _completion_residual(kb, theta, blocks) == 0.0
    assert sum(s.lookups for s in sources) <= sum(map(len, sources))


def perturbed_blocks(theta, caps):
    """Multiplier blocks plus complex noise of size 2e-4 per entry."""
    rng = np.random.default_rng(3)
    return {
        key: b + 2e-4 * (rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape))
        for key, b in theta.materialize_blocks(caps).items()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_slab_completion_residual_matches_pair_oracle_when_perturbed(name):
    # a perturbed Theta: the residual is about 1e-3 and both routes see the same blocks
    kb, theta = CASES[name]()
    blocks = perturbed_blocks(theta, kb.truncation.shape.caps)
    got = _completion_residual(kb, theta, blocks)
    want = completion_residual_pairs(kb, theta, blocks)
    assert 1e-4 < want < 1e-2
    assert got == pytest.approx(want, rel=1e-12)


def test_multiplier_residuals_see_perturbations():
    kb, theta = word_case()
    caps = kb.truncation.shape.caps
    with pytest.raises(ValueError, match="does not intertwine"):
        _validate_blocks(theta, perturbed_blocks(theta, caps), caps)
    # still intertwines, but Theta* Theta = 1.002 I
    scaled = InnerMultiplier(theta.shape, 1, 1, {d: 1.001 * c for d, c in theta.coeffs.items()}, isometric=True)
    with pytest.raises(ValueError, match="flagged isometric"):
        validate_multiplier(scaled, caps)


@pytest.fixture
def svd_calls(monkeypatch):
    """Number of calls into every SVD entry point of numpy."""
    calls = [0]
    # ``np.linalg.norm(., 2)`` reaches the SVD through the implementation module
    impl = np.linalg._linalg if hasattr(np.linalg, "_linalg") else np.linalg.linalg
    for module in {impl, np.linalg}:
        svd = module.svd

        def counting(*args, _svd=svd, **kwargs):
            calls[0] += 1
            return _svd(*args, **kwargs)

        monkeypatch.setattr(module, "svd", counting)
    return calls


def test_identity_checks_make_no_svd_call(svd_calls, tmp_path):
    t = compression_tuple(construct_mt(construct_nadic(2, 0.5), 4))
    t_path, theta_path = tmp_path / "t.json", tmp_path / "theta.json"
    t_path.write_text(tuple_to_json(t))
    theta_path.write_text(multiplier_to_json(monomial_multiplier(Shape((2,)), 0, (1,))))
    svd_calls[0] = 0
    for argv in (
        ["check", "intertwine", "--input", str(t_path), "--caps", "4"],
        ["check", "connection", "--input", str(t_path), "--caps", "4", "--qmax", "3"],
        ["check", "index", "--input", str(t_path), "--theta", str(theta_path), "--caps", "4"],
    ):
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0, argv
    assert svd_calls[0] == 0
    np.linalg.norm(np.eye(2), 2)  # the counter sees the SVD route of the old norm
    assert svd_calls[0] == 1


def _spectral_norm_calls(tree):
    """``norm(..., 2)`` and ``norm(..., ord=2)`` calls in a parsed module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "norm":
            continue
        ords = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
        if any(isinstance(o, ast.Constant) and o.value in (2, -2) for o in ords):
            yield node.lineno


def test_no_svd_norm_left_in_the_library():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := list(_spectral_norm_calls(ast.parse(path.read_text()))))
    }
    assert found == {}


def test_scan_sees_both_spellings():
    tree = ast.parse("np.linalg.norm(a, 2)\nnorm(b, ord=2)\nnp.linalg.norm(c)\n")
    assert list(_spectral_norm_calls(tree)) == [1, 2]

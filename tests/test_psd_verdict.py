"""The one PSD verdict: against the dense oracles, the SVD-scaled formula, and its cost."""

import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from conftest import commuting_tuple, random_row_tuple
from oracle import creation_op, op_block, op_identity
from polyball import fock
from polyball.berezin import BerezinKernel, berezin_kernel, has_characteristic_function, identity_minus_kk_star
from polyball.basis import Shape
from polyball.cp import TOLERANCES, ampliation, herm, psd_verdict, tuple_to_json
from polyball.fock import FockTruncation, bump, defect_positive, defect_shift, defect_verdict, truncation_for
from polyball.subspaces import (
    GradedSubspace,
    beurling_check,
    bidisc_difference_subspace,
    compression_tuple,
    construct_mt,
    construct_nadic,
    cur0_subspace,
    finite_codim_subspace,
    subspace_from_json,
    subspace_to_json,
    tensor_subspace,
    uncountable_family,
)
from polyball.symmetric import SymFockTruncation, coordinate_multiple_subspace, curv_c_estimate


def constrained_kernel():
    """Symmetric kernel of a Beurling compression; its smallest eigenvalue is -2.2e-16."""
    sub = coordinate_multiple_subspace(SymFockTruncation(Shape((2, 2), caps=(3, 3))), 0, 1)
    return berezin_kernel(compression_tuple(sub), (3, 3), "symmetric")


def oracle_cases():
    """``(truncation, build)``: ``build(box)`` forms the operator whose defect is tested on ``box``."""
    kb = constrained_kernel()
    uncountable = uncountable_family(0.3, 0.75, (4, 4))
    bidisc = bidisc_difference_subspace((5, 5))
    return {
        "uncountable": (uncountable.truncation, uncountable.projection),
        "bidisc-difference": (bidisc.truncation, bidisc.projection),
        "constrained-char": (kb.truncation, lambda box: op_identity(box) - kb.kk_star_full(box)),
    }


@pytest.mark.parametrize("name", ["uncountable", "bidisc-difference", "constrained-char"])
def test_verdict_matches_dense_oracles(name):
    ft, build = oracle_cases()[name]
    d = defect_shift(build(ft))
    v = defect_verdict("test", ft, build)
    assert v.min_eigenvalue == d.min_eig_interior()  # same eigvalsh call, to the bit
    spectrum = np.linalg.eigvalsh(herm(d.to_dense(d.interior_grades())))
    scale = max(abs(spectrum[0]), abs(spectrum[-1]))
    norm = d.norm_interior()
    assert scale == pytest.approx(norm, rel=1e-12)
    assert v.bound == pytest.approx(-TOLERANCES["psd"].value * max(norm, 1.0), rel=1e-12)
    assert v.positive == (d.min_eig_interior() >= -TOLERANCES["psd"].value * max(norm, 1.0))
    assert v.positive == (name != "bidisc-difference")


def svd_scaled_verdict(a):
    """The rule before the one verdict: SVD norm of the matrix itself."""
    lo = float(np.linalg.eigvalsh(herm(a))[0])
    return lo >= -TOLERANCES["psd"].value * max(np.linalg.norm(a, 2), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 0.5, 1.0, 7.0, 1e3]),
    margin=st.sampled_from([-3.0, -1.5, -0.5, 0.0, 0.5, 2.0]),
)
def test_verdict_equals_svd_scaled_rule(dim, seed, scale, margin):
    # Hermitian with spectral norm ``scale`` and smallest eigenvalue ``margin`` bounds
    # away from zero, plus a roundoff-size skew part; margins stay clear of the bound.
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    vals = rng.uniform(0.0, scale, dim)
    vals[-1] = scale
    vals[0] = margin * TOLERANCES["psd"].value * max(scale, 1.0)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = (u * vals) @ u.conj().T + 1e-16 * scale * (g - g.conj().T)
    v = psd_verdict(np.linalg.eigvalsh(herm(a)))
    assert v.positive == svd_scaled_verdict(a)
    assert v.positive == (margin >= -1.0)


def test_empty_spectrum_is_positive():
    v = psd_verdict(np.zeros(0))
    assert v.positive and v.min_eigenvalue == 0.0 and v.bound == -TOLERANCES["psd"].value


@pytest.fixture
def counted(monkeypatch):
    """Call counts of ``to_dense``, the dense norm oracle and every SVD entry point."""
    counts = {"to_dense": 0, "norm_interior": 0, "svd": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fock.GradedOperator, "to_dense", counting("to_dense", fock.GradedOperator.to_dense))
    monkeypatch.setattr(fock.GradedOperator, "norm_interior",
                        counting("norm_interior", fock.GradedOperator.norm_interior))
    # ``np.linalg.norm(., 2)`` reaches the SVD through the implementation module
    impl = np.linalg._linalg if hasattr(np.linalg, "_linalg") else np.linalg.linalg
    monkeypatch.setattr(impl, "svd", counting("svd", impl.svd))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    return counts


def test_beurling_check_densifies_once_without_svd(counted):
    sub = uncountable_family(0.3, 0.75, (4, 4))
    counted.update(dict.fromkeys(counted, 0))
    assert beurling_check(sub).positive
    assert counted == {"to_dense": 1, "norm_interior": 0, "svd": 0}


def test_char_function_densifies_once_without_svd(counted):
    kb = constrained_kernel()
    counted.update(dict.fromkeys(counted, 0))
    assert has_characteristic_function(kb).positive
    assert counted == {"to_dense": 1, "norm_interior": 0, "svd": 0}


# -- a diagonal interior is its own spectrum ------------------------------------------


def as_basis_mode(sub):
    """``sub`` written and loaded back as a basis-mode subspace with the same grade bases."""
    ft = sub.truncation
    bases = {q: sub.grade_basis(q) for q in ft.grades}
    return subspace_from_json(subspace_to_json(GradedSubspace(ft, "basis", grade_bases=bases)))


def graded_cases():
    mt = construct_mt(construct_nadic(2, 0.37), 4)
    return {
        "mt": construct_mt(construct_nadic(2, 0.37), 8),
        "coordinate-multiple": coordinate_multiple_subspace(SymFockTruncation(Shape((2, 2), caps=(5, 5))), 0, 1),
        "basis-tensor": tensor_subspace([as_basis_mode(mt), cur0_subspace(2, 4)]),
        "finite-codim": finite_codim_subspace((2, 2), (4, 4), 1),  # every grade but the vacuum: not Beurling
    }


@pytest.mark.parametrize("name", ["mt", "coordinate-multiple", "basis-tensor", "finite-codim"])
def test_interior_verdict_matches_dense_oracles(name):
    sub = graded_cases()[name]
    d = defect_shift(sub.projection())
    v = defect_verdict("Beurling test", sub.truncation, sub.projection)
    assert v.min_eigenvalue == d.min_eig_interior()
    assert v.bound == pytest.approx(-TOLERANCES["psd"].value * max(d.norm_interior(), 1.0), rel=1e-12)
    assert v.positive == (name != "finite-codim")
    assert beurling_check(sub).positive == v.positive
    if name == "finite-codim":
        assert v.min_eigenvalue == -1.0


def random_basis_subspace(ft, rng, invariant, fill):
    """Random orthonormal grade bases; with ``invariant``, each grade also spans the shifts of those below."""
    shifts = [[creation_op(ft, i, j) for j in range(1, ft.shape.n[i] + 1)] for i in range(ft.shape.k)]
    bases = {}
    for q in sorted(ft.grades, key=sum):
        dim = ft.dim(q)
        extra = int(rng.binomial(dim, fill))
        cols = [rng.standard_normal((dim, extra)) + 1j * rng.standard_normal((dim, extra))]
        if invariant:
            for i, row in enumerate(shifts):
                src = bump(q, i, -1)
                if q[i] and src in bases:
                    cols += [op_block(s, src, q) @ bases[src] for s in row]
        m = np.hstack(cols)
        if m.shape[1]:
            u, s, _ = np.linalg.svd(m, full_matrices=False)
            m = u[:, s > 1e-9 * s[0]]
        if m.shape[1]:
            bases[q] = m
    return GradedSubspace(ft, "basis", grade_bases=bases)


BASIS_SHAPES = [((2,), (4,), 1), ((1, 1), (3, 3), 1), ((2, 1), (2, 3), 1), ((1, 2), (2, 2), 2)]


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(BASIS_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    invariant=st.booleans(),
    fill=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
)
def test_interior_verdict_matches_whole_interior_on_random_basis_subspaces(shape, seed, invariant, fill):
    n, caps, cd = shape
    ft = FockTruncation(Shape(n, caps=caps), coeff_dim=cd)
    sub = random_basis_subspace(ft, np.random.default_rng(seed), invariant, fill)
    d = defect_shift(sub.projection())
    interior = d.interior_grades()
    v = defect_verdict("Beurling test", ft, sub.projection)
    whole = psd_verdict(np.linalg.eigvalsh(herm(d.to_dense(interior))))
    assert v.positive == whole.positive
    assert abs(v.min_eigenvalue - whole.min_eigenvalue) <= 1e-12 * max(1.0, abs(whole.min_eigenvalue))
    assert v.bound == pytest.approx(whole.bound, rel=1e-12)


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """Order of every matrix handed to ``np.linalg.eigvalsh``."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return sizes


def interior_dims(sub):
    d = defect_shift(sub.projection())
    return [d.trunc.dim(q) for q in d.interior_grades()]


def test_structured_beurling_test_takes_no_eigvalsh(eigvalsh_sizes):
    sub = uncountable_family(0.3, 0.75, (4, 4))
    assert max(interior_dims(sub)) > 1
    eigvalsh_sizes.clear()
    assert beurling_check(sub).positive
    assert eigvalsh_sizes == []


def test_span_beurling_test_takes_one_whole_interior_spectrum(eigvalsh_sizes):
    sub = bidisc_difference_subspace((5, 5))
    dims = interior_dims(sub)
    eigvalsh_sizes.clear()
    assert not beurling_check(sub).positive
    assert eigvalsh_sizes == [sum(dims)]


def curv_c_kernel():
    """The caps-(4, 4) symmetric kernel of the ``curv-c`` tuple: two ``commuting_tuple`` draws from seed 1."""
    rng = np.random.default_rng(1)
    return berezin_kernel(ampliation([commuting_tuple(rng, 2, 3, 0.8), commuting_tuple(rng, 2, 3, 0.8)]), (4, 4), "symmetric")


def caveat_sign(kb):
    """The route of ``curv_c_estimate``'s caveat: the sign of the characteristic-function test."""
    return defect_positive("characteristic-function test", kb.truncation, partial(identity_minus_kk_star, kb))


@pytest.mark.parametrize("verdict, make", [
    (has_characteristic_function, curv_c_kernel),
    (caveat_sign, curv_c_kernel),
    (beurling_check, lambda: bidisc_difference_subspace((5, 5))),
], ids=["char-function", "curv-c-caveat", "bidisc-difference"])
def test_the_operator_is_released_before_the_spectrum(verdict, make, monkeypatch):
    arg = make()  # before the patches: building a kernel takes spectra of its own
    built, seen = [], []
    for cls, name in ((BerezinKernel, "kk_star_full"), (GradedSubspace, "projection")):
        def capturing(self, *args, _build=getattr(cls, name), **kwargs):
            built.append(_build(self, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cls, name, capturing)
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        seen.append([len(op.blocks) for op in built])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    verdict(arg)
    assert seen == [[0]]  # one spectrum, taken after the one built operator gave up its blocks


# -- the curv-c caveat is refuted on the unit box before the whole interior is built -----------------------


def random_tuple(rng, model, n):
    rows = [(commuting_tuple if model == "symmetric" else random_row_tuple)(rng, ni, 2, 0.8) for ni in n]
    return rows[0] if len(rows) == 1 else ampliation(rows)


def random_kernel(case):
    """The kernel of ``case = (model, (n, caps), seed)``: a random tuple of that model."""
    model, (n, caps), seed = case
    return berezin_kernel(random_tuple(np.random.default_rng(seed), model, n), caps, model)


def unit_truncation(ft):
    """The truncation at caps ``min(c, 2)``, whose interior grades are ``{0, 1}^k``: the first box of the caveat."""
    return truncation_for(ft.model, ft.shape.with_caps(min(c, 2) for c in ft.shape.caps), ft.coeff_dim)


def dense_char_defect(kb, ft):
    """``(box, h)`` of the characteristic-function test on ``interior_box(ft)``, built from ``kb``'s blocks."""
    return fock._dense_defect("characteristic-function test", ft, partial(identity_minus_kk_star, kb))


def caveat_stages(kb):
    """``(caveat_sign(kb), caps)``: the sign, and the caps of each truncation whose interior it densified."""
    seen, dense_defect = [], fock._dense_defect

    def recording(what, ft, build):
        seen.append(ft.shape.caps)
        return dense_defect(what, ft, build)

    with mock.patch.object(fock, "_dense_defect", recording):
        return caveat_sign(kb), seen


# k = 1 and 2; caps where the unit box is the whole box, and where it is not
N_CAPS = [((2,), (4,)), ((3,), (3,)), ((2,), (2,)), ((2, 1), (2, 3)), ((1, 2), (3, 2)), ((2, 2), (2, 2)),
          ((1, 1), (4, 1))]
kernels = st.tuples(st.sampled_from(["full", "symmetric"]), st.sampled_from(N_CAPS), st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(case=kernels)
def test_the_unit_box_interior_is_a_principal_submatrix_of_the_whole(case):
    kb = random_kernel(case)
    box, h = dense_char_defect(kb, kb.truncation)
    unit, u = dense_char_defect(kb, unit_truncation(kb.truncation))
    assert set(unit.grades) == {q for q in box.grades if max(q) <= 1}
    rows = np.concatenate([box.offset(q) + np.arange(box.dim(q)) for q in unit.grades])
    assert h[np.ix_(rows, rows)].tobytes() == u.tobytes()


@settings(max_examples=30, deadline=None)
@given(case=kernels)
def test_the_characteristic_defect_has_norm_at_most_2_to_the_k(case):
    kb = random_kernel(case)
    _, h = dense_char_defect(kb, kb.truncation)
    assert np.linalg.norm(h, 2) <= 2.0 ** kb.truncation.shape.k


@settings(max_examples=15, deadline=None)
@given(model=st.sampled_from(["full", "symmetric"]), n=st.sampled_from([(2,), (3,), (1, 1), (1, 2), (2, 1)]),
       seed=st.integers(0, 2**32 - 1))
def test_a_unit_box_refutation_holds_at_a_larger_depth(model, n, seed):
    t = random_tuple(np.random.default_rng(seed), model, n)
    sign, seen = caveat_stages(berezin_kernel(t, (4,) * len(n), model))
    if not sign and seen == [(2,) * len(n)]:  # refuted on the unit box of caps (4, 4)
        assert not has_characteristic_function(berezin_kernel(t, (5,) * len(n), model)).positive


@settings(max_examples=25, deadline=None)
@given(case=kernels)
def test_caveat_sign_equals_the_characteristic_function_verdict(case):
    kb = random_kernel(case)
    sign, seen = caveat_stages(kb)
    assert sign == has_characteristic_function(kb).positive
    # the whole interior is read unless the unit box refutes
    assert seen[-1] == kb.truncation.shape.caps or (not sign and seen == [unit_truncation(kb.truncation).shape.caps])


def test_the_caveat_reaches_both_stages():
    def stages(case):
        return caveat_stages(random_kernel(case))[1]

    quick = settings(database=None, max_examples=50, phases=[Phase.generate])  # the first example found
    refuted = find(kernels, lambda c: max(c[1][1]) > 2 and len(stages(c)) == 1, settings=quick)
    find(kernels, lambda c: len(stages(c)) == 2, settings=quick)  # the unit box passed: the whole box is read
    assert caveat_stages(random_kernel(refuted))[0] is False


def test_curv_c_caveat_reads_the_unit_box(counted, eigvalsh_sizes, monkeypatch):
    rng = np.random.default_rng(1)
    t = ampliation([commuting_tuple(rng, 2, 3, 0.8), commuting_tuple(rng, 2, 3, 0.8)])
    built = []
    kk_star_full = BerezinKernel.kk_star_full

    def recording(self, *args, **kwargs):
        built.append(kk_star_full(self, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(BerezinKernel, "kk_star_full", recording)
    est = curv_c_estimate(t, 3)  # caps (4, 4): the kernel of curv_c_kernel, a 900-row interior
    assert est.caveats == ("characteristic function test failed; existence of the limit is unproved",)
    assert len(built) == 1 and counted["to_dense"] == 1
    assert eigvalsh_sizes.count(81) == 1 and max(eigvalsh_sizes) == 81  # grades {0, 1}^2: 9 monomials, dimH 9


CHILD = """
import sys
from functools import partial
from polyball.berezin import berezin_kernel, has_characteristic_function, identity_minus_kk_star
from polyball.cp import tuple_from_json
from polyball.fock import defect_positive
kb = berezin_kernel(tuple_from_json(sys.stdin.read()), (4, 4), "symmetric")
if sys.argv[1] == "caveat":
    defect_positive("characteristic-function test", kb.truncation, partial(identity_minus_kk_star, kb))
else:
    has_characteristic_function(kb)
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


def peak_rss_kib(route, tuple_json):
    """Peak RSS of a fresh interpreter that builds the caps-(4, 4) symmetric kernel and runs ``route`` on it.

    ``VmHWM`` is the high-water mark of the process's own memory map; ``ru_maxrss`` would also count the
    resident set of the process that started it.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", CHILD, route], input=tuple_json, capture_output=True, text=True,
                         env=env, check=True)
    return int(out.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak RSS of a process from /proc")
def test_caveat_peaks_below_the_characteristic_function_verdict():
    # Only the whole-interior eigvalsh copies the 900-row interior into LAPACK's buffers.  numpy allocates them
    # with malloc, out of tracemalloc's sight (both routes' traced peak is the to_dense step), so each route's
    # peak RSS is read in a lean process of its own.
    rng = np.random.default_rng(1)
    t = tuple_to_json(ampliation([commuting_tuple(rng, 2, 3, 0.8), commuting_tuple(rng, 2, 3, 0.8)]))
    assert peak_rss_kib("caveat", t) < peak_rss_kib("whole", t)

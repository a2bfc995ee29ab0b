"""The SU(2) Gauss law from label rows and raising operators, checked
against the per-axis generators and commutators of ``su2_oracle``."""

from functools import lru_cache

import numpy as np
import pytest

import gauge_oracle
import su2_oracle
from lgtlab import matter as matter_mod
from lgtlab.gauge import charge_rows
from lgtlab.hamiltonian import HamiltonianSpec, build_model, \
    max_gauss_violation
from lgtlab.lattice import build_lattice
from lgtlab.observables import charge_profile
from lgtlab.tensor import ProductSpace

MATTER = dict(model="su2", eps=0.4, mass=0.2,
              matter=matter_mod.SU2_FUNDAMENTAL)

# name -> (spec, lattice arguments)
MODELS = {
    "chain2_jhalf_matter": (HamiltonianSpec(truncation=0.5, **MATTER),
                           (1, [2])),
    "chain3_jhalf_matter": (HamiltonianSpec(truncation=0.5, **MATTER),
                           (1, [3])),
    "chain4_jhalf_matter": (HamiltonianSpec(truncation=0.5, **MATTER),
                           (1, [4])),
    "chain3_j1_matter": (HamiltonianSpec(truncation=1, **MATTER), (1, [3])),
    "plaquette_jhalf": (HamiltonianSpec(model="su2", truncation=0.5, g2=1.0),
                       (2, [2, 2])),
    "plaquette_j1": (HamiltonianSpec(model="su2", truncation=1, g2=1.0),
                     (2, [2, 2])),
}

# gauge-variant perturbations P, added to H as eps (P + P^dag): a left or
# right generator on link 0, or the color bilinear c^dag_up c_down at
# vertex 0.  Each single generator violates two components of the Gauss law
# by the same amount or the z one by less; L^x + L^y violates the z
# component most, so that a check which misses it fails
LINK_PERTURBATIONS = [side + axis for side in "LR" for axis in "xyz"] \
    + ["Lxy"]
EPSILONS = (1e-3, 0.37)


@lru_cache(maxsize=None)
def oracle_model(name):
    """(model, H, per-axis generators) of a named model, built once."""
    spec, (dim, sizes) = MODELS[name]
    model = build_model(spec, build_lattice(dim, sizes))
    return (model, model.hamiltonian(),
            su2_oracle.gauss_generators_su2(model.space, spec.truncation))


def perturbation(model, name):
    space = model.space
    if name == "matter":
        return space.embed([(1.0, matter_mod.hop(
            space.layout.factor(0, 0), space.layout.factor(0, 1)))])
    left, right = su2_oracle.link_generators(model.spec.truncation)
    ops = left if name[0] == "L" else right
    return space.embed([(1.0, [(0, sum(ops[axis] for axis in name[1:]))])])


def cases():
    for name, (spec, _) in MODELS.items():
        yield pytest.param(name, None, 0.0, id=f"{name}-clean")
        perturbations = LINK_PERTURBATIONS + (
            ["matter"] if spec.matter is not None else [])
        for p in perturbations:
            for eps in EPSILONS:
                yield pytest.param(name, p, eps, id=f"{name}-{p}-{eps}")


@pytest.mark.parametrize("name", MODELS)
def test_generators_match_per_axis_oracle(name):
    model, _, reference = oracle_model(name)
    derived = su2_oracle.derived_generators_su2(model.space)
    assert len(derived) == len(reference) == model.lattice.vertex_count
    for triple, ref_triple in zip(derived, reference):
        for g, ref in zip(triple, ref_triple):
            assert abs(g - ref).max() <= 1e-15


@pytest.mark.parametrize("name", MODELS)
def test_plan_rows_are_twice_the_oracle_gz(name):
    # the one Gauss plan gives SU(2) its G^z in half units: every row is
    # an integer row exactly twice the diagonal of the oracle's G^z
    model, _, reference = oracle_model(name)
    table = charge_rows(model.space, model.space.labels)
    assert table.dtype.kind == "i"
    for row, (_, _, gz) in zip(table, reference, strict=True):
        assert np.all(row == 2 * gz.diagonal())


@pytest.mark.parametrize("name", MODELS)
def test_hamiltonian_is_hermitian_bit_for_bit(name):
    # the precondition of max_gauss_violation's K- = -(K+)^dag
    _, h, _ = oracle_model(name)
    assert (h != h.conj().T).nnz == 0


def test_charge_profile_is_twice_the_oracle_qz():
    # on two-color matter the profile reads 2 Q^z per vertex, Q^z the
    # oracle's (1/2) psi^dag sigma^z psi embedded on the full space
    model = oracle_model("chain3_jhalf_matter")[0]
    space = model.space
    rng = np.random.default_rng(3)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    ref = [2 * np.vdot(psi, space.embed(su2_oracle.su2_charge(
        space.layout, v, "z")) @ psi).real
        for v in range(model.lattice.vertex_count)]
    profile = charge_profile(model, psi, space.labels)
    assert np.max(np.abs(profile - ref)) < 1e-14


@pytest.mark.parametrize("name, perturbed, eps", cases())
def test_max_gauss_violation_matches_per_axis_oracle(name, perturbed, eps):
    model, h, reference = oracle_model(name)
    if perturbed is not None:
        p = perturbation(model, perturbed)
        h = (h + eps * (p + p.conj().T)).tocsr()
    expected = su2_oracle.max_gauss_violation(reference, h)
    assert abs(max_gauss_violation(model, h) - expected) <= 1e-15
    if perturbed is not None:
        assert expected >= eps / 4      # the perturbation is gauge variant
    else:
        assert expected < 1e-12


def test_su2_check_builds_no_generators(monkeypatch):
    # the verify --all chain of 4: one G^+ per vertex, whose terms are the
    # only embeddings (6 link ends and 4 color bilinears, each one pass of
    # _kron), and no per-axis generator
    model = build_model(HamiltonianSpec(truncation=0.5, **MATTER),
                        build_lattice(1, [4]))
    h = model.hamiltonian()
    calls = {"_kron": 0}
    _kron = ProductSpace._kron

    def counted(self, *args, **kwargs):
        calls["_kron"] += 1
        return _kron(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("per-axis generators built")
    monkeypatch.setattr(ProductSpace, "_kron", counted)
    for oracle, name in ((su2_oracle, "gauss_generators_su2"),
                         (su2_oracle, "derived_generators_su2"),
                         (gauge_oracle, "generators")):
        monkeypatch.setattr(oracle, name, refuse)
    assert max_gauss_violation(model, h) == 0.0
    assert 0 < calls["_kron"] <= 10

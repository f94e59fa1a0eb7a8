"""The one integer rule: every public entry point that takes a count, size or
seed checks it with ``errors._checked_integer``, so a float is rejected, not
truncated, and a value below the least is rejected with the argument's name."""

import numpy as np
import pytest

from tomolab import bases, diagnostics, equivalence, measurement, regression, rng, states

RHO = states.validate_density(np.eye(2) / 2)
PAULI2 = bases.build_basis("pauli", 2)
THETA = [0.5, 0.5]
RUN = dict(rho=RHO, basis=PAULI2, design=bases.SamplingDesign.fixed(), n=4, m=4, seed=1)


def _entry(function, argument, least, **kwargs):
    """One (callable, argument) pair: ``kwargs`` is a valid call, ``least`` the
    least value ``argument`` takes."""
    return pytest.param(function, kwargs, argument, least, id=f"{function.__name__}-{argument}")


ENTRY_POINTS = [
    *(_entry(simulate, argument, least, **RUN)
      for simulate in (measurement.run_tomography, regression.simulate_coarse,
                       regression.simulate_fine)
      for argument, least in (("n", 0), ("m", 1))),
    *(_entry(regression.estimator_transfer, argument, least,
             rho=RHO, basis=PAULI2, m=4, seed=1, replications=2)
      for argument, least in (("m", 1), ("replications", 2))),
    _entry(equivalence.kernel_K0, "m", 1, counts=[1, 1], m=2, seed=1),
    _entry(equivalence.kernel_K1, "m", 1, values=[1.0, 1.0], m=2),
    _entry(equivalence.translate_regression_to_qst, "m", 1,
           samples=(np.array([1]), np.array([[0.5, 0.5]])), m=2),
    _entry(equivalence.multinomial_pmf, "m", 0, counts=[1, 1], m=2, theta=THETA),
    _entry(equivalence.hellinger_perturbed_vs_gaussian, "m", 1, m=2, theta=THETA),
    *(_entry(equivalence.tv_perturbed_vs_gaussian, argument, least,
             m=2, theta=THETA, n_samples=2, seed=1)
      for argument, least in (("m", 1), ("n_samples", 2))),
    *(_entry(diagnostics.corollary_suite, argument, least, d=2, seed=1, samples=1)
      for argument, least in (("seed", 0), ("samples", 1))),
    *(_entry(diagnostics.deficiency_bound, argument, least,
             n=10, m=16, gamma=0.1, zeta=0.5, constant=1.0)
      for argument, least in (("n", 0), ("m", 1))),
    _entry(bases.build_basis, "d", 2, kind="hermitian", d=2),
    _entry(rng.substream, "seed", 0, seed=1),
]


@pytest.mark.parametrize("function, kwargs, argument, least", ENTRY_POINTS)
def test_counts_sizes_and_seeds_follow_the_integer_rule(function, kwargs, argument, least):
    function(**kwargs)  # the valid call runs, so each rejection is the argument's
    for value, problem in ((2.5, "an integer"), (least - 1, "at least")):
        with pytest.raises(ValueError, match=f"^{argument} must be {problem}"):
            function(**{**kwargs, argument: value})


# each m of a grid is checked before any point runs, so a grid is never truncated
M_GRIDS = [
    pytest.param(lambda grid: equivalence.scaling_report(THETA, grid, []), id="scaling_report"),
    pytest.param(lambda grid: regression.estimator_transfer_sweep(RHO, PAULI2, grid, 1, 2),
                 id="estimator_transfer_sweep"),
]


@pytest.mark.parametrize("sweep", M_GRIDS)
@pytest.mark.parametrize("grid, problem", [([16.5, 64], "an integer, got 16.5"),
                                           ([0, 64], "at least 1, got 0")], ids=["float", "zero"])
def test_m_grids_follow_the_integer_rule(sweep, grid, problem):
    with pytest.raises(ValueError, match=f"^m_grid must be {problem}$"):
        sweep(grid)


def _sample(class_name, d, **fields):
    return states.sample_class(states.StateClassSpec(class_name, **fields), d, seed=1)


# the state constructions keep their own messages for an integer out of range, so
# only a value that is not an integer is checked here
NON_INTEGERS = [
    pytest.param(function, kwargs, argument, value, id=f"{name}-{argument}")
    for name, function, kwargs, argument, value in (
        ("haar_wavelet_vectors", bases.haar_wavelet_vectors, dict(d=4), "d", 2.5),
        ("witness_state", states.witness_state, dict(name="cor3_tilted", d=4), "d", 4.0),
        ("remark8_haar_rank1", states.witness_state, dict(name="remark8_haar_rank1", d=4), "d",
         2.5),
        ("tilted_product_state", states.tilted_product_state, dict(b=2), "b", 1.5),
        ("pauli_line_state", states.pauli_line_state, dict(d=4, j_star=1, beta=0.5), "j_star", 1.5),
        ("sample_class", _sample, dict(class_name="low_rank", d=4, r=2), "d", 2.5),
        ("entry_sparse", _sample, dict(class_name="entry_sparse", d=4, s=1), "s", 1.5),
        ("pauli_sparse", _sample, dict(class_name="pauli_sparse", d=4, s=2), "s", 1.5),
        ("low_rank", _sample, dict(class_name="low_rank", d=4, r=2), "r", 1.5),
        ("low_rank_sparse_vec", _sample,
         dict(class_name="low_rank_sparse_vec", d=4, r=1, gamma=1), "r", 1.5),
        ("low_rank_sparse_vec", _sample,
         dict(class_name="low_rank_sparse_vec", d=4, r=1, gamma=1), "gamma", 1.5))]


@pytest.mark.parametrize("function, kwargs, argument, value", NON_INTEGERS)
def test_state_sizes_follow_the_integer_rule(function, kwargs, argument, value):
    function(**kwargs)
    with pytest.raises(ValueError, match=f"^{argument} must be an integer, got {value}$"):
        function(**{**kwargs, argument: value})

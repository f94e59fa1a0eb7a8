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
    _entry(bases.build_basis, "d", 2, kind="hermitian", d=2),
    _entry(rng.substream, "seed", 0, seed=1),
]


@pytest.mark.parametrize("function, kwargs, argument, least", ENTRY_POINTS)
def test_counts_sizes_and_seeds_follow_the_integer_rule(function, kwargs, argument, least):
    function(**kwargs)  # the valid call runs, so each rejection is the argument's
    for value, problem in ((2.5, "an integer"), (least - 1, "at least")):
        with pytest.raises(ValueError, match=f"^{argument} must be {problem}"):
            function(**{**kwargs, argument: value})

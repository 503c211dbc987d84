"""The generic filters' outputs, pinned bit for bit by SHA-256 digests.

Every public field of every step report of ``uwlckf_run`` on the
benchmark's phase track (seeds 0 and 1, 300 steps), of ``wlckf_run`` on
two models of the benchmark's stiff family (``bench/workloads.py``,
seed 0, 200 steps), and of ``ckf_run`` on the same models with their
conjugate blocks A2, B2, C2 set to zero, is hashed with its dtype and
shape. So are the unscented filter's moment-gather positions
(``_moment_terms``) for state and measurement sizes 1 to 6, and every
posterior that ``wlckf_batch`` and ``ckf_batch`` yield on the
``equivalence`` command's random models, and the bytes of the
``theta-bound`` table at 20,000 draws in both formats. A change that only
restructures the filters or the table writer keeps every digest; a
change that moves one bit of one report or one byte of one table changes
one. The digests were
recorded with numpy 2.4 on OpenBLAS, like the goldens under
``tests/data``: another BLAS build may round the products differently.
"""
import hashlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wlckf import phase
from wlckf.augmented import AugmentedMatrix
from wlckf.cli import main, random_real_model
from wlckf.linear import ckf_batch, ckf_run, model_from_real, simulate_linear, simulate_linear_batch, wlckf_batch, wlckf_run
from wlckf.stats import substream
from wlckf.unscented import _moment_terms, uwlckf_run

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Registered before running: dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _update(h, arrays) -> None:
    """Feed each array's dtype, shape and bytes to the hash ``h``."""
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def digest(reports) -> str:
    """SHA-256 over every public field of every report: t, the flag, and each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr((rep.t, rep.singular_innovation, rep.predicted.t, rep.state.t)).encode())
        _update(h, (
            rep.predicted.estimate.top, rep.predicted.cov.m1, rep.predicted.cov.m2,
            rep.innovation.top, rep.innovation_cov.m1, rep.innovation_cov.m2, rep.gain.m1, rep.gain.m2,
            rep.state.estimate.top, rep.state.cov.m1, rep.state.cov.m2,
        ))
    return h.hexdigest()


def array_digest(arrays) -> str:
    """SHA-256 over a sequence of arrays, each with its dtype and shape."""
    h = hashlib.sha256()
    _update(h, arrays)
    return h.hexdigest()


def _phase_reports(seed):
    model = phase.PhaseModel(snr_db=20.0, rho_abs=0.7)
    _, y = phase.simulate_phase(model, 300, substream(seed, 60_000))
    return uwlckf_run(phase.nonlinear_phase_model(model), y)


def _strictly_linear_part(model):
    def drop(m):
        return AugmentedMatrix(m.m1, np.zeros_like(m.m2))

    return replace(model, A=drop(model.A), B=drop(model.B), C=drop(model.C))


def _stiff_reports(index, run):
    e, f, g, q, r, pi = _workloads().stiff_model(0, index)
    model = model_from_real(e, f, g, q, r, pi)
    _, ys = simulate_linear(model, 200, substream(0, 50_000, index, 1))
    return wlckf_run(model, ys) if run == "wlckf_run" else ckf_run(_strictly_linear_part(model), ys)


def _reports(case):
    run, model = case.split("-")
    if run == "uwlckf_run":
        return _phase_reports(int(model[len("seed"):]))
    return _stiff_reports(int(model[len("stiff"):]), run)


PINNED = {
    "uwlckf_run-seed0": "b1e34c56250770096c08fb41d19c582bb1476f79f74cca1c756340b2184948c3",
    "uwlckf_run-seed1": "e33a88077cff91374f1d1f814ea0b55af0fe065cee794a314a58f9b848e6bad8",
    "wlckf_run-stiff0": "7d6ed27d9b1b4a02ac413fc607d8fe374756846d57843861894df628ef22db34",
    "wlckf_run-stiff1": "7ac2fec2c3c371469f5247b26289da3a33ad0a11bbcdf4476b48b7ccd194367a",
    "ckf_run-stiff0": "dba57a119773f9139bdd4710601ac2d58a331b2769a425da21bee89b16368c7d",
    "ckf_run-stiff1": "51755bfffcb7b6120eb7f3f6dc0f21ffaabc50cd22ab74e98c5eb200bb994631",
}


@pytest.mark.parametrize("case", PINNED.keys())
def test_reports_keep_their_pinned_bits(case):
    assert digest(_reports(case)) == PINNED[case]


# Keyed "n-m": the positions _moment_terms(n, m) gives _pair_means, both arrays.
PINNED_GATHERS = {
    "1-1": "6e9b618a7e5b9c4281e750a1f862dea9cfcfcbe2980b78d2bcc7e7fae3110dd2",
    "1-2": "a5ee0cab895aebfbb518dbfe3decb63b4d0b44d77e646b913a8da5c3d0dab600",
    "1-3": "6840feca7cfa4f54c454597cfca1cabeb48dd00b69f967a2b45449e258a96dd0",
    "1-4": "05192e65e57f9171b27e61a37f0c7e18e2c88a35dc3b9d2e4d97e761449da516",
    "1-5": "20a3a9cc2a45951b1b335a22bcd0584ebc9f76fc938a4d56e1c4bbef467c4d10",
    "1-6": "9936b1c3a06394dc6d94f923bc91d0f26f21a87438bef799307918ce5b91edca",
    "2-1": "b540cfa0a5bd709823a81fce3e5ddb34354a2b6cb868102ae5916eef5d5ff1b0",
    "2-2": "18f9406a25ccf90b535ff693d422885ec788dee6f5f7214b55d03f01084dd811",
    "2-3": "c081f2429856f563341069f50fc411694a56ae061b0641557f4b2eacd70fa678",
    "2-4": "7675d0ccfc9e8884809e27abcad58518eb840b2e0e29d1044d436f40bc88e93d",
    "2-5": "21a76912fbebdb55091bb0af9eb1ed6779478610dfb7dbb6c2b57849df537f39",
    "2-6": "27ad7e5844ce97a468777366743fe151795f4f66e13e03aaf20e38f3d20d8d29",
    "3-1": "05ff57d1a8f224aa87074d286c6662590a9161dbbfc17e1b86be9697ca078bcf",
    "3-2": "290d8b31b279cd2db9747618a12e148939beba1519ce5f45428eb909c08de380",
    "3-3": "593131c8775335c9646b818d55aaf462c1daccc03b7b0023798509035aac0fd0",
    "3-4": "f705986782cceda90617c779420a157eda5717830f8f0a964126753c67871dfc",
    "3-5": "40e3ec7bf67dba26903c7249dbed30efdbacef82b437a66a14ee0fe2f6cf3ea5",
    "3-6": "47ebbed6800a8c9463a0cb48e9b950d98bf016f44bf1435db369e18539467e8a",
    "4-1": "1cb0b71e6a293b8d9bcbf388d21d0d70d37c01e085c2e2b2bd5fb59fd424d46c",
    "4-2": "454fe9d5057704dd8ba939f9fbdffb4dd256c38e1b29c2c9485b56e8004266f4",
    "4-3": "2426e0e13a3f5a525cf5f0559dbfb6880da4aee30993dd7df0bf80c7d7696d2f",
    "4-4": "d11f849606c07e22e20e3a4842cc2815b65082b9ef4419a270aec070cc57f0c1",
    "4-5": "5de2211f0102b46343ebdc7a3fb233ee53a4c96b7a51d08bd63f18dffe7dfcc5",
    "4-6": "358c059157717af6933df2b06b2984a55b7cc47670b0bf69ba1c4e116f3c6671",
    "5-1": "3bf31c93ce4f6e069b6b1d9e9462273e7e47be7c016aa5a910c3396ac52607fb",
    "5-2": "2212eb9601353fca562af2840aa1cc98e3d11c65030a935b015db4b1a210a5ff",
    "5-3": "caf0356a233df2a1de47eb4d2ab0215f37ff3c91f690658c6bc17d730a304e2f",
    "5-4": "da8345fd5ec5c123062d0edbcc8cccf301603d621e4832cd98d3c2b0e643b2ba",
    "5-5": "0862196e7afe9ee50f64b9c423e62640f9f00fb2d2d5438957c13aa4f2eaae8f",
    "5-6": "3ca4c78f633c34fd1ee02ff327d4657ea80268de487543239d62d7e83d67c502",
    "6-1": "c23de0e25f0d6058b1546b35bb2f5700ab0ebdeb12938a804876b35c091b33f7",
    "6-2": "3a6e97e0a70a47bcd2434b49c4ae89f3db48a172ab10853c437287095f37f63f",
    "6-3": "3d1ca49ba873df39680c31fdbe9f6e976e05066c0b6bca0ae9e6e92eca6eb4c7",
    "6-4": "95bb38b76e72e7d5af16d5899a888b9acaf2b397072f79c09ef34fa58d1bb38f",
    "6-5": "d4328ea7a27771b2b00e5450be181004f641f13053f90132c1a70574196e990e",
    "6-6": "451c512fb8a25ef8f9b9eb2988a3e2f484af8a7b0534d3f7e7fc95cf3da47a76",
}


@pytest.mark.parametrize("case", PINNED_GATHERS.keys())
def test_moment_gather_keeps_its_pinned_positions(case):
    n, m = map(int, case.split("-"))
    assert array_digest(_moment_terms(n, m)) == PINNED_GATHERS[case]


# Keyed "filter-n-m-family": every step's posterior top halves and full
# covariances of four equivalence trials (seed 0, 20 steps), drawn as the
# equivalence command draws them; "proper" is its --proper family, whose
# models are their own proper parts, so both filters give the same bits.
PINNED_BATCHES = {
    "wlckf_batch-1-1-widely": "a2c1035e1d6fae59ddb638a50ef74c99561d9964f6f729d0ae3eae88d0ce4630",
    "wlckf_batch-2-2-widely": "d00c73b724793c7d60dd021811ae6f3ed397704aa422e6b0f651bb0ecd9fb4c8",
    "wlckf_batch-8-8-widely": "69a7e1f8a65901232ea7392d50916a7d9c61bcbbe9f023507472411d65b50ce9",
    "wlckf_batch-2-2-proper": "adbaf20abc9dfb79fe778beb3cbb5be005ec0dc6bff7b27d8863e65fdd62a9c2",
    "ckf_batch-2-2-proper": "adbaf20abc9dfb79fe778beb3cbb5be005ec0dc6bff7b27d8863e65fdd62a9c2",
}


@pytest.mark.parametrize("case", PINNED_BATCHES.keys())
def test_batch_posteriors_keep_their_pinned_bits(case):
    name, n, m, family = case.split("-")
    trials = range(4)
    models = [model_from_real(*random_real_model(substream(0, t), int(n), int(m), family == "proper")) for t in trials]
    _, measurements = simulate_linear_batch(models, 20, [substream(0, t, 1) for t in trials])
    batch = wlckf_batch if name == "wlckf_batch" else ckf_batch
    assert array_digest([a for x, p in batch(models, measurements) for a in (x, p)]) == PINNED_BATCHES[case]


# Keyed by format: the theta-bound table at 20,000 draws, seed 0, 50 steps,
# which runs three sweep batches and 79 writer chunks.
PINNED_THETA_TABLES = {
    "csv": "15a04d99746970906020bf6f682e58cc4caa1dc21287f5f51aad39b84bd0e6c3",
    "json": "071127764f0d95ba81d715dc7614a0d3a959bfa2e67d8fadb651aa2c0deff004",
}


@pytest.mark.parametrize("fmt", PINNED_THETA_TABLES.keys())
def test_theta_bound_table_keeps_its_pinned_bytes(tmp_path, fmt):
    path = tmp_path / f"theta_bound.{fmt}"
    assert main(["theta-bound", "--draws", "20000", "--format", fmt, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_THETA_TABLES[fmt]

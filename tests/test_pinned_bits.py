"""The generic filters' outputs, pinned bit for bit by SHA-256 digests.

Every public field of every step report of ``uwlckf_run`` on the
benchmark's phase track (seeds 0 and 1, 300 steps), of ``wlckf_run`` on
two models of the benchmark's stiff family (``bench/workloads.py``,
seed 0, 200 steps), and of ``ckf_run`` on the same models with their
conjugate blocks A2, B2, C2 set to zero, is hashed with its dtype and
shape. A change that only restructures the filters keeps every digest; a
change that moves one bit of one report changes one. The digests were
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
from wlckf.linear import ckf_run, model_from_real, simulate_linear, wlckf_run
from wlckf.stats import substream
from wlckf.unscented import uwlckf_run

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Registered before running: dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def digest(reports) -> str:
    """SHA-256 over every public field of every report: t, the flag, and each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr((rep.t, rep.singular_innovation, rep.predicted.t, rep.state.t)).encode())
        for a in (
            rep.predicted.estimate.top, rep.predicted.cov.m1, rep.predicted.cov.m2,
            rep.innovation.top, rep.innovation_cov.m1, rep.innovation_cov.m2, rep.gain.m1, rep.gain.m2,
            rep.state.estimate.top, rep.state.cov.m1, rep.state.cov.m2,
        ):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
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

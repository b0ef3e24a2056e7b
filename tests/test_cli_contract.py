"""The CLI contract, fuzzed: every run of ``sweep``, ``single``, ``fit``,
``gumbel`` and ``clt`` ends in exit 0 with a finite CSV or report, or in
exit 1 with exactly one ``error:`` line and no CSV; and the manifest of a
sweep that exits 0 reruns to the same CSV bytes."""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimosec import SCHEMES
from mimosec.asymptotics import COST_MODELS, GROWTH_MODELS
from mimosec.cli import main
from mimosec.config import COST_ESTIMATORS, MAX_QUANT_BITS, MAX_SIZE

# Powers, noise levels, gains and weights: one, the smallest subnormal and
# normal doubles, the largest doubles, and zeros.  The noise levels must be
# positive, and the weights not all zero.
POSITIVE_REALS = [1.0, 5e-324, 1e-308, 1e308, sys.float_info.max]
ZEROS = [0.0, -0.0]
POSITIVE = {"sigma2", "rho2", "weights"}

# Each integer setting's values just inside its bounds, then just outside
# them.  An upper bound of 2^20 is only stepped over: a size of 2^20 itself
# would not run in seconds.
INTEGERS = {
    "K": ([1, 2, 3, 4], [0, MAX_SIZE + 1]),
    "J": ([0, 1, 2, 3], [-1, MAX_SIZE + 1]),
    "trials": ([1, 2, 3], [0, MAX_SIZE + 1]),
    "seed": ([0, 1, 2 ** 64], [-1]),
    "quant_bits": ([1, 2, MAX_QUANT_BITS], [0, MAX_QUANT_BITS + 1]),
}

# The config-file key of each manifest key that differs from it.
TEXT_KEY = {"betas": "beta", "thetas": "theta"}


@st.composite
def sweeps(draw):
    """A sweep's settings keyed as in a manifest, with at most one setting
    outside its bounds: an integer, the array sizes, or a real of POSITIVE."""
    broken = draw(st.none() | st.sampled_from(["K", "J", "L", "trials", "seed", "quant_bits",
                                               "m_values", *sorted(POSITIVE)]))

    def real(name):
        return draw(st.sampled_from(ZEROS if name == broken else POSITIVE_REALS
                                    if name in POSITIVE else POSITIVE_REALS + ZEROS))

    def integer(name):
        inside, outside = INTEGERS[name]
        return draw(st.sampled_from(outside if name == broken else inside))

    scheme = draw(st.sampled_from(SCHEMES))
    K = integer("K")
    ranks = list(range(1, min(K, 4) + 1)) if scheme == "TAS_B" else []
    L = draw(st.sampled_from([0, MAX_SIZE + 1] if broken == "L" else ranks or [K]))
    sizes = ([[K - 1, K + 4], [MAX_SIZE + 1], [K + 4, K]] if broken == "m_values"
             else [[K], [K + 4], [K, K + 4], [K, K + 2, K + 4]])
    settings = dict(scenario="fuzz", scheme=scheme, K=K, J=integer("J"), L=L,
                    **{name: real(name) for name in ("total_power", "sigma2", "rho2",
                                                     "betas", "thetas", "weights")},
                    m_values=draw(st.sampled_from(sizes)), trials=integer("trials"),
                    seed=integer("seed"), cost_estimator=draw(st.sampled_from(COST_ESTIMATORS)))
    if scheme == "HADP_B":
        settings["quant_bits"] = integer("quant_bits")
    return settings


@st.composite
def checks(draw):
    """A ``gumbel`` or ``clt`` command line, with at most one of its flags
    outside its bounds."""
    broken = draw(st.none() | st.sampled_from(["--m", "--trials", "--seed"]))
    argv = [draw(st.sampled_from(["gumbel", "clt"]))]
    for flag, inside, outside in (("--m", [1, 2], [0, MAX_SIZE + 1]),
                                  ("--trials", [1, 3], [0, MAX_SIZE + 1]),
                                  ("--seed", [0, 7], [-1])):
        argv += [flag, str(draw(st.sampled_from(outside if flag == broken else inside)))]
    return argv


def write_config(directory: Path, form: str, sweep: dict) -> Path:
    if form == "json":
        path = directory / "fuzz.manifest.json"
        vectors = {name: [sweep[name]] for name in ("betas", "thetas", "weights")}
        path.write_text(json.dumps({"sweep": {**sweep, **vectors}}))
    else:
        path = directory / "fuzz.cfg"
        path.write_text("".join(
            f"{TEXT_KEY.get(key, key)}: "
            f"{', '.join(map(str, value)) if isinstance(value, list) else value}\n"
            for key, value in sweep.items()))
    return path


def run(argv) -> tuple:
    """``main(argv)``'s exit code, stderr lines, with each warning raised
    along the way counted as a stderr line, and stdout lines."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return (code, err.getvalue().splitlines() + [str(w.message) for w in caught],
            out.getvalue().splitlines())


def assert_ends_in_the_contract(code, err):
    """Exit 0 with nothing on stderr, or exit 1 with one ``error:`` line."""
    if code == 0:
        assert err == []
    else:
        assert code == 1 and len(err) == 1 and err[0].startswith("error: "), (code, err)


# Every trial's rates are finite, but their mean and standard error at m = 5
# overflow a double.
OVERFLOWING_MEAN = dict(scenario="fuzz", scheme="TAS_A", K=1, J=0, L=1, total_power=1.0,
                        sigma2=1e-05, rho2=1.0, betas=1e-05, thetas=0.0, weights=1e308,
                        m_values=[1, 5], trials=2, seed=1, cost_estimator="mean_of_ratios")
# The TAS_B search's utilities overflow a double.
OVERFLOWING_SEARCH = dict(scenario="fuzz", scheme="TAS_B", K=2, J=0, L=2, total_power=1e150,
                          sigma2=1.0, rho2=1.0, betas=1.0, thetas=0.0,
                          weights=sys.float_info.max, m_values=[2, 6], trials=1, seed=0,
                          cost_estimator="mean_of_ratios")
# Every sweep point is finite, about 2.5e307, but the squares of a growth
# fit's residuals overflow a double.
OVERFLOWING_FIT = dict(scenario="fuzz", scheme="TAS_A", K=1, J=0, L=1, total_power=1.0,
                       sigma2=1.0, rho2=1.0, betas=1.0, thetas=1.0, weights=1e307,
                       m_values=[4, 8, 16], trials=1, seed=3, cost_estimator="mean_of_ratios")


@settings(max_examples=60, deadline=None)
@given(form=st.sampled_from(["text", "json"]), sweep=sweeps(),
       single=st.tuples(st.sampled_from([0, 4, -1]), st.sampled_from([0, 1, 2, -1, 3])),
       check=checks())
@example(form="text", sweep=OVERFLOWING_MEAN, single=(4, 0),
         check=["gumbel", "--m", "1", "--trials", "1", "--seed", "0"])
@example(form="json", sweep=OVERFLOWING_MEAN, single=(4, 1),
         check=["clt", "--m", "2", "--trials", "3", "--seed", "7"])
@example(form="text", sweep=OVERFLOWING_SEARCH, single=(0, 0),
         check=["gumbel", "--m", "2", "--trials", "3", "--seed", "0"])
@example(form="json", sweep=OVERFLOWING_SEARCH, single=(4, 0),
         check=["clt", "--m", "1", "--trials", "1", "--seed", "0"])
@example(form="text", sweep=OVERFLOWING_FIT, single=(0, 0),
         check=["clt", "--m", "2", "--trials", "1", "--seed", "0"])
def test_every_run_ends_in_a_finite_csv_or_one_error_line(form, sweep, single, check):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config, out = str(write_config(tmp, form, sweep)), tmp / "out"
        code, err, _ = run(["sweep", config, "--out", str(out), "--workers", "1"])
        assert_ends_in_the_contract(code, err)
        csvs = list(out.glob("*.csv"))
        assert len(csvs) == (code == 0)
        for path in csvs:
            for row in list(csv.reader(path.read_text().splitlines()))[1:]:
                assert all(math.isfinite(float(cell)) for cell in row[2:]), row
            for model in GROWTH_MODELS + COST_MODELS:
                code, err, report = run(["fit", str(path), "--model", model])
                assert_ends_in_the_contract(code, err)
                # Each line after the model's is a finite number.
                assert all(math.isfinite(float(line.split(": ")[1])) for line in report[1:])
            rerun = tmp / "rerun"
            assert run(["sweep", str(path.with_suffix(".manifest.json")), "--out", str(rerun),
                        "--workers", "1"])[:2] == (0, [])
            assert (rerun / path.name).read_bytes() == path.read_bytes()

        m, trial = sweep["K"] + single[0], single[1]
        assert_ends_in_the_contract(*run(["single", config, "--m", str(m),
                                          "--trial", str(trial)])[:2])
    assert_ends_in_the_contract(*run(check)[:2])

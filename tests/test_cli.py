import argparse
import contextlib
import decimal
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selmat
from selmat import oracle
from selmat import verify as verify_mod
from selmat.cli import EXIT_BROKEN_PIPE, SELECTOR_FLAGS, build_parser, main
from test_oracle import haar_sample  # test-only: the whole Haar stream held at once


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.strip().splitlines()]


def test_config_echo_and_selberg(capsys):
    code, recs = run_cli(capsys, "selberg", "--n", "2", "--u", "1", "--w", "1", "--kappa", "1")
    assert code == 0
    assert recs[0]["config"]["command"] == "selberg"
    assert recs[1]["exact"] == "1/6"
    assert recs[1]["float"] == pytest.approx(1 / 6)


def test_selberg_gamma_output(capsys):
    code, recs = run_cli(capsys, "selberg", "--n", "2", "--u", "1/2", "--w", "1", "--kappa", "1")
    assert code == 0
    rec = recs[1]
    assert "exact_gamma" in rec or "exact" in rec
    assert rec["float"] > 0


def test_negcorr_example(capsys):
    code, recs = run_cli(capsys, "negcorr", "--field", "c", "--n", "10")
    assert code == 0
    rec = recs[1]
    assert rec["cross"] == "1/399"
    assert rec["same_row"] == "1/420"
    assert rec["second_moment_sq"] == "1/400"
    # exact strings parse back to the identical rational
    assert F(rec["cross"]) == F(1, 399)


def test_weingarten_example(capsys):
    code, recs = run_cli(
        capsys, "weingarten", "orthogonal", "--k", "2", "--coset-type", "2", "--z", "5"
    )
    assert code == 0
    assert recs[1]["exact"] == "-1/140"


@pytest.mark.parametrize("group,flag", [("unitary", "--cycle-type"), ("orthogonal", "--coset-type")])
def test_weingarten_empty_partition_flag_is_given(capsys, group, flag):
    # "0" parses to the empty partition, which was once read as a missing flag
    code, recs = run_cli(capsys, "weingarten", group, "--k", "0", flag, "0", "--z", "3")
    assert code == 0
    assert (recs[1]["exact"], recs[1]["type"]) == ("1", "0")
    code, recs = run_cli(capsys, "weingarten", group, "--k", "2", flag, "0", "--z", "3")
    assert code == 2
    kind = flag[2:].replace("-", " ")
    assert recs[-1]["error"]["message"] == f"{kind} () is not a partition of k=2"


@pytest.mark.parametrize(
    "argv,unused",
    [
        (("unitary", "--k", "2", "--coset-type", "2", "--z", "3"), "--coset-type"),
        (("orthogonal", "--k", "2", "--cycle-type", "2", "--z", "3"), "--cycle-type"),
        (("orthogonal", "--k", "2", "--coset-type", "2", "--z", "3", "--w", "5"), "--w"),
    ],
)
def test_weingarten_names_flags_of_the_other_group(capsys, argv, unused):
    # the other group's partition flag was once read as this group's, and --w was ignored
    code, recs = run_cli(capsys, "weingarten", *argv)
    assert code == 2 and len(recs) == 2
    assert recs[-1]["error"]["message"] == f"weingarten group {argv[0]} does not use {unused}"


@pytest.mark.parametrize(
    "argv,joined,exact",
    [
        (("selberg", "--n", "2", "--u", "1", "--w", "1", "--kappa", "-1/3"), "--kappa=-1/3", "9/2"),
        (("weingarten", "unitary", "--k", "2", "--cycle-type", "1,1", "--z", "-7/2"), "--z=-7/2",
         "4/45"),
    ],
)
def test_a_negative_rational_after_its_flag_is_the_flags_value(capsys, argv, joined, exact):
    # argparse on Python 3.10 and 3.11 reads "-1" and "-0.25" as numbers but "-1/3" as a flag
    code, recs = run_cli(capsys, *argv)
    assert code == 0 and recs[1]["exact"] == exact
    assert (code, recs) == run_cli(capsys, *argv[:-2], joined)


def test_variance_with_limit(capsys):
    code, recs = run_cli(
        capsys, "variance", "--ensemble", "hermitian", "--convention", "paper",
        "--n-list", "10,20,40,80,160",
    )
    assert code == 0
    vals = [r for r in recs if "var" in r]
    assert len(vals) == 5
    assert F(vals[0]["var"]) == F(vals[0]["var"])  # round-trip parse
    limit = [r for r in recs if "limit_float" in r][0]
    assert limit == {"ensemble": "hermitian", "limit_float": float(F(1, 32)), "quantity": "var"}


def test_sigma_subcommand(capsys):
    code, recs = run_cli(
        capsys, "sigma", "--ensemble", "full-complex", "--n-list", "10,20,40"
    )
    assert code == 0
    limit = [r for r in recs if "limit_float" in r][0]
    assert limit["limit_float"] == float(F(1, 2))


@pytest.mark.parametrize(
    "command,name,n_list,want",
    [
        ("sigma", "symmetric", "2:700", 0.5),
        ("sigma", "symmetric", "2:100", 0.5),
        ("variance", "hermitian", "2:300", 0.125),
    ],
)
def test_extrapolated_limit_on_long_lists(capsys, command, name, n_list, want):
    # the limit is read off the exact function of n, so no list spoils it (float
    # Neville through every point of these lists printed NaN, 2.6e37 and 2.2e146)
    code, recs = run_cli(capsys, command, "--ensemble", name, "--n-list", n_list)
    assert code == 0
    limit = [r for r in recs if "limit_float" in r][0]
    assert limit["limit_float"] == float(F(want))


def test_asympt_remark(capsys):
    code, recs = run_cli(capsys, "asympt", "--quantity", "remark", "--beta", "2", "--order", "0")
    assert code == 0
    assert recs[1]["laurent"][0] == "1/128"


def test_remark_beta_records(capsys):
    code, recs = run_cli(capsys, "remark-beta", "--beta", "6", "--n-list", "4,8")
    assert code == 0
    assert recs[-1]["constant_term"] == "1/384"
    assert recs[-1]["target_1_over_64beta"] == "1/384"


def test_jack_and_kadell(capsys):
    code, recs = run_cli(capsys, "jack", "expand", "--lam", "2", "--kappa", "1/2")
    assert code == 0
    assert recs[1]["coefficients"] == {"2": "1", "1,1": "2/3"}
    code, recs = run_cli(
        capsys, "kadell", "--lam", "1,1", "--n", "2", "--u", "1", "--w", "1", "--kappa", "1"
    )
    assert recs[1]["exact"] == "1/6"


def test_moments_and_covariance(capsys):
    code, recs = run_cli(capsys, "moments", "--ensemble", "hermitian", "--n", "4")
    assert code == 0
    assert recs[1]["convention"] == "forced"
    assert F(recs[1]["var"]) > 0
    code, recs = run_cli(capsys, "covariance", "--ensemble", "sym", "--n", "5")
    assert code == 0
    assert recs[1]["zero_pattern_exact"] is True


def test_oracle_quad(capsys):
    code, recs = run_cli(
        capsys, "oracle", "quad", "--kind", "selberg", "--n", "2",
        "--u", "1", "--w", "1", "--kappa", "1", "--payload", "one", "--points", "24",
    )
    assert code == 0
    assert recs[1]["value"] == pytest.approx(1 / 6, abs=1e-10)


def test_oracle_sample_and_haar(capsys):
    code, recs = run_cli(
        capsys, "oracle", "sample", "--ensemble", "symmetric", "--n", "2",
        "--count", "20000", "--seed", "4",
    )
    assert code == 0
    assert all("mean" in r for r in recs[1:])
    code, recs = run_cli(
        capsys, "oracle", "haar", "--group", "orthogonal", "--n", "4", "--count", "4000",
    )
    assert code == 0
    rec = recs[1]
    assert abs(rec["E_abs_U11_sq"] - 0.25) <= 5 * rec["stderr"]


@pytest.mark.parametrize(
    "alias,name,off",
    [("Hermitian", "hermitian", "absT12sq"), ("her", "hermitian", "absT12sq"),
     ("SYM", "symmetric", "T12sq")],
)
def test_oracle_sample_resolves_ensemble_aliases(capsys, alias, name, off):
    # the payloads were once named from the raw string: Hermitian printed T12sq
    # and her was refused, although covariance accepts it
    argv = ("oracle", "sample", "--n", "3", "--count", "200", "--seed", "3")
    code, recs = run_cli(capsys, *argv, "--ensemble", alias)
    assert code == 0
    assert [r["moment"] for r in recs[1:]] == sorted(["T11T22", "T11sq", off])
    _, want = run_cli(capsys, *argv, "--ensemble", name)
    assert recs[1:] == want[1:]


def test_oracle_haar_matches_the_whole_sample(capsys):
    # the statistic is merged chunk by chunk (10 003 draws make three 4096-matrix
    # chunks); its mean and stderr are those of every matrix held at once
    import numpy as np

    code, recs = run_cli(
        capsys, "oracle", "haar", "--group", "unitary", "--n", "4", "--count", "10003", "--seed", "5"
    )
    assert code == 0
    m11 = np.abs(haar_sample("unitary", 4, seed=5, count=10_003)[:, 0, 0]) ** 2
    rec = recs[1]
    assert rec["E_abs_U11_sq"] == pytest.approx(float(m11.mean()), rel=1e-12, abs=0)
    want = float(m11.std(ddof=1) / len(m11) ** 0.5)
    assert rec["stderr"] == pytest.approx(want, rel=1e-12, abs=0)
    assert {k: rec[k] for k in ("group", "n", "target", "count")} == {
        "group": "unitary", "n": 4, "target": 0.25, "count": 10_003
    }
    code, _ = run_cli(capsys, "oracle", "haar", "--group", "orthogonal", "--n", "65", "--count", "2")
    assert code == 0  # memory no longer grows with count, so n has no cap


def test_oracle_count_below_two_refused_before_drawing(capsys, monkeypatch):
    # every matrix was once drawn before "too few samples" ended the run
    def no_draws(*args):
        pytest.fail("drew before refusing the count")

    monkeypatch.setattr(oracle, "_chunks", no_draws)  # every sampler draws through it
    for argv in (  # oracle haar once had its own guard and message
        ("sample", "--ensemble", "hermitian", "--n", "3", "--count", "1"),
        ("loggas", "--a", "1", "--b", "2", "--n", "3", "--count", "1"),
        ("haar", "--group", "unitary", "--n", "2", "--count", "1"),
    ):
        code, recs = run_cli(capsys, "oracle", *argv)
        assert code == 2
        assert recs[-1]["error"] == {
            "type": "ValueError", "message": "a Monte Carlo stderr needs count >= 2, got 1"
        }


def test_oracle_sample_n1_draws_only_the_diagonal(capsys):
    # T12sq and T11T22 need two rows; T_11 is uniform on [-1, 1] at n = 1
    code, recs = run_cli(
        capsys, "oracle", "sample", "--ensemble", "hermitian", "--n", "1", "--count", "2000"
    )
    assert code == 0
    assert [r["moment"] for r in recs[1:]] == ["T11sq"]
    assert abs(recs[1]["mean"] - 1 / 3) <= 4 * recs[1]["stderr"]


def test_oracle_sample_two_draws_have_a_stderr(capsys):
    # two draws once fell short of 25 batch means
    code, recs = run_cli(
        capsys, "oracle", "sample", "--ensemble", "hermitian", "--n", "3", "--count", "2"
    )
    assert code == 0
    assert all(r["n_samples"] == 2 and math.isfinite(r["stderr"]) for r in recs[1:])


def test_oracle_loggas(capsys):
    code, recs = run_cli(
        capsys, "oracle", "loggas", "--a", "1", "--b", "2", "--n", "3",
        "--count", "2000", "--seed", "8", "--payload", "sum_sq", "--payload", "cross_sq",
    )
    assert code == 0
    assert [r["payload"] for r in recs[1:]] == ["cross_sq", "sum_sq"]
    assert all(r["n_samples"] == 2000 and r["seed"] == 8 for r in recs[1:])


def test_oracle_sample_full_complex_n3_default_count(capsys):
    # box rejection accepted 1.2e-5 of its proposals here and gave up; the
    # row-by-row sampler keeps every draw
    code, recs = run_cli(capsys, "oracle", "sample", "--ensemble", "full-complex", "--n", "3")
    assert code == 0
    assert [r["moment"] for r in recs[1:]] == ["T11T22", "T11sq", "T12sq"]
    for rec in recs[1:]:
        assert rec["n_samples"] == 100_000
    # E|T_11|^2 = 1/(2n) on the full complex ball
    t11 = recs[2]
    assert abs(t11["mean"] - 1 / 6) <= 4 * t11["stderr"]


def test_csv_format(capsys):
    code = main(["--format", "csv", "negcorr", "--field", "r", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert "cross" in lines[0]
    # cross = (n+1)/(n(2n+1)(2n+3)) = 4/189 and same_row = 1/63 at n = 3
    assert any("4/189" in ln and "1/63" in ln for ln in lines[1:])


def test_verify_cli_byte_determinism(capsys):
    main(["verify", "--criteria", "C2,C7,C9"])
    first = capsys.readouterr().out
    main(["verify", "--criteria", "C2,C7,C9"])
    second = capsys.readouterr().out
    assert first == second and len(first) > 200
    # each criterion line is the library's serialised result, timing left out
    results = verify_mod.run_all(verify_mod.DEFAULT_SEED, ("C2", "C7", "C9"))
    assert first.splitlines()[1:-1] == [verify_mod.serialize_result(r) for r in results]
    assert all("seconds" not in r.to_json() for r in results)


@pytest.mark.parametrize("flag", ["--mc-count", "--points"])
def test_verify_takes_no_size_flags(flag):
    # the suite runs at fixed sizes: QUAD_POINTS per axis and MC_COUNT draws per ball
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("n,want", [(1, "1/8"), (2, "1/128")])
def test_aomoto_general_ratio_where_an_overlap_factor_vanishes(capsys, n, want):
    # at (m1, m2, m3) = (n, n, n) and u + w = kappa the overlap prefactor's numerator
    # and a denominator factor are one linear form, here 0; cancelled as forms they
    # leave 1/8 = B(3/2, 3/2)/B(1/2, 1/2) at n = 1, and 1/128 at n = 2 (quadrature:
    # 0.019276571/2.4674011 = 0.0078125)
    m = str(n)
    code, recs = run_cli(
        capsys, "aomoto", "--n", m, "--u", "1/2", "--w", "1/2", "--kappa", "1",
        "--m1", m, "--m2", m, "--m3", m,
    )
    assert code == 0 and recs[1]["exact"] == want


def _digits_to_int(text: str) -> int:
    # int() refuses past sys.get_int_max_str_digits(); Decimal's conversion does not
    return int(decimal.Decimal(text))


@pytest.mark.parametrize(
    "n,u,w,kappa",
    [("100", "1", "1", "1"), ("200", "1", "1", "1/2"), ("40", "7/11", "3/2", "10"),
     ("2", "7/11", "3/2", "1000")],
)
def test_selberg_values_past_the_int_string_limit_print(capsys, n, u, w, kappa):
    # each exact value has a numerator or denominator past CPython's 4300-digit limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, recs = run_cli(capsys, "selberg", "--n", n, "--u", u, "--w", w, "--kappa", kappa)
    assert code == 0, recs[-1]
    rec = recs[1]
    text = rec["exact"] if "exact" in rec else rec["exact_gamma"]["prefactor"]
    p, _, q = text.partition("/")
    assert max(len(p), len(q)) > 4300
    got = F(_digits_to_int(p), _digits_to_int(q or "1"))
    want = selmat.selberg_I0(selmat.SelbergParams(int(n), F(u), F(w), F(kappa))).simplify()
    assert got == (want if "exact" in rec else want.prefactor)
    log_value = math.log(abs(got.numerator)) - math.log(got.denominator)
    for a, e in rec.get("exact_gamma", {}).get("factors", ()):
        log_value += e * math.lgamma(float(F(a)))
    assert rec["log_value"] == pytest.approx(log_value, rel=1e-12)
    if limit is not None:  # formatting changed no process-wide setting
        assert sys.get_int_max_str_digits() == limit


def test_a_rational_flag_past_the_int_string_limit_exits_2():
    # parsing user input keeps CPython's limit
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int string limit")
    with pytest.raises(SystemExit) as exc:
        main(["selberg", "--n", "2", "--u", "1" * 5001, "--w", "1", "--kappa", "1"])
    assert exc.value.code == 2


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["selberg", "--n", "2"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("selberg", "--n", "2", "--u", "1", "--w", "1", "--kappa", "-5"),
        ("jack", "expand", "--lam", "13", "--kappa", "1"),
        ("aomoto", "--n", "3", "--u", "1", "--w", "1", "--kappa", "1"),
        ("weingarten", "unitary", "--k", "2", "--z", "5"),
        ("weingarten", "orthogonal", "--k", "7", "--coset-type", "7", "--z", "20"),
        ("oracle", "loggas", "--a", "1", "--b", "2", "--c", "1", "--n", "3"),
        ("oracle", "quad", "--kind", "loggas", "--a", "1", "--c", "1", "--n", "2"),
        ("oracle", "sample", "--ensemble", "hermitian", "--n", "0"),
        ("oracle", "sample", "--ensemble", "hermitian", "--n", "2", "--count", "0"),
        ("oracle", "haar", "--group", "unitary", "--n", "0"),
        ("oracle", "haar", "--group", "unitary", "--n", "2", "--count", "1"),
        ("sigma", "--ensemble", "hermitian", "--n-list", "5:2"),
        ("variance", "--ensemble", "hermitian", "--n-list", "5:2"),
        ("remark-beta", "--beta", "2", "--n-list", "5:2"),
        ("oracle", "quad", "--kind", "loggas", "--n", "2", "--kappa", "-1"),
        ("oracle", "quad", "--kind", "selberg", "--n", "2", "--b", "-2"),
        ("variance", "--ensemble", "full-real", "--n-list", "2,2,3"),
        ("remark-beta", "--beta", "2", "--n-list", "4,8,4"),
        ("remark-beta", "--beta", "0", "--n-list", "4,8"),
        ("asympt", "--quantity", "remark", "--beta", "0"),
        ("asympt", "--quantity", "var", "--ensemble", "hermitian", "--beta", "3", "--kappa", "7"),
        ("asympt", "--quantity", "x2", "--kappa", "1", "--convention", "paper"),
        ("asympt", "--quantity", "fm-x2", "--beta", "-1"),
        ("oracle", "sample", "--ensemble", "hermitian", "--n", "3", "--count", "1"),
        ("jack", "expand", "--lam", "2", "--kappa", "0"),
        ("jack", "principal", "--lam", "13", "--kappa", "1", "--n", "3"),
        ("kadell", "--lam", "13", "--n", "3", "--u", "1", "--w", "1", "--kappa", "1"),
        # n < l(lambda) once returned 0 before the degree cap and kappa > 0 were checked
        ("kadell", "--lam", ",".join(["1"] * 13), "--n", "3", "--u", "1", "--w", "1",
         "--kappa", "1"),
        ("kadell", "--lam", "1,1,1", "--n", "2", "--u", "1", "--w", "1", "--kappa", "0"),
        ("covariance", "--ensemble", "real-symmetric", "--n", "3"),
        # a payload past t_n once ended in an IndexError, or wrapped round to t_n
        ("oracle", "quad", "--n", "1", "--payload", "shifted:x1x1"),
        ("oracle", "quad", "--n", "1", "--payload", "shifted:x2x2"),
        ("oracle", "quad", "--n", "2", "--payload", "aomoto:2,1,0"),
        ("oracle", "quad", "--n", "2", "--payload", "aomoto:1,1,2"),
        ("oracle", "quad", "--n", "2", "--payload", "shifted:x3"),
        # an unknown criterion was a KeyError, a repeated one ran twice
        ("verify", "--criteria", "C99"),
        ("verify", "--criteria", "C2,C2"),
        # these printed an empty expansion and an exact 0
        ("asympt", "--quantity", "var", "--ensemble", "hermitian", "--order", "-1"),
        ("jack", "principal", "--lam", "2,1", "--kappa", "1", "--n", "-1"),
        # e_m at m < 0 once printed the integral of the constant 1
        ("oracle", "quad", "--n", "2", "--payload", "elementary:-1"),
        # a negative seed once ran C1-C9 and then failed inside numpy at C10
        ("verify", "--seed", "-1", "--criteria", "C2"),
        # the oracle samplers once ended in numpy's bare "expected non-negative integer"
        ("oracle", "sample", "--ensemble", "hermitian", "--n", "2", "--seed", "-1"),
        ("oracle", "loggas", "--a", "1", "--b", "2", "--n", "2", "--seed", "-1"),
        ("oracle", "haar", "--group", "unitary", "--n", "2", "--seed", "-1"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, recs = run_cli(capsys, *argv)
    assert code == 2
    assert "config" in recs[0]
    assert len(recs) == 2  # no result record before the error
    err = recs[-1]["error"]
    assert err["type"] and err["message"]


@pytest.mark.parametrize(
    "argv,message",
    [
        # a repeated n once printed its record twice and ended in a float division by zero
        (("variance", "--ensemble", "full-real", "--n-list", "2,2,3"),
         "--n-list names n = 2 twice"),
        (("sigma", "--ensemble", "hermitian", "--n-list", "4:6,5"), "--n-list names n = 5 twice"),
        (("asympt", "--quantity", "remark", "--beta", "0"), "beta must be positive"),
        (("asympt", "--quantity", "remark", "--beta", "-2"), "beta must be positive"),
        (("remark-beta", "--beta", "-2", "--n-list", "2:5"), "beta must be positive"),
        # fm- printed meaningless functions at beta <= 0, and divided by zero at -1
        (("asympt", "--quantity", "fm-x2", "--beta", "0"), "beta must be positive"),
        (("asympt", "--quantity", "fm-x2", "--beta", "-1"), "beta must be positive"),
        (("asympt", "--quantity", "fm-x4", "--beta", "-2"), "beta must be positive"),
        (("asympt", "--quantity", "fm-x2x2", "--beta", "1/2"),
         "full-matrix quantities need integer beta"),
        (("covariance", "--ensemble", "quat", "--n", "3"),
         "covariance_report covers hermitian|symmetric, got 'quat'"),
        (("oracle", "quad", "--n", "1", "--payload", "shifted:x1x1"),
         "payload shifted:x1x1 needs n >= 2, got n=1"),
        (("verify", "--criteria", "C2,C99"),
         "unknown criteria ['C99']; choose from ['C1', 'C2', 'C3', 'C4', 'C5', 'C6', 'C7', 'C8',"
         " 'C9', 'C10']"),
        (("verify", "--criteria", "C2,C3,C2"),
         "criteria ['C2', 'C3', 'C2'] name a criterion more than once"),
        (("asympt", "--quantity", "remark", "--beta", "1", "--order", "-1"),
         "order must be in 0..8, got -1"),
        (("jack", "principal", "--lam", "2,1", "--kappa", "1", "--n", "-1"),
         "n must be >= 0, got -1"),
        (("verify", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("oracle", "quad", "--n", "2", "--payload", "elementary:-1"),
         "payload elementary:-1 needs m >= 0"),
        (("oracle", "sample", "--ensemble", "hermitian", "--n", "2", "--seed", "-1"),
         "seed must be >= 0, got -1"),
        (("oracle", "loggas", "--a", "1", "--b", "2", "--n", "2", "--seed", "-1"),
         "seed must be >= 0, got -1"),
        (("oracle", "haar", "--group", "unitary", "--n", "2", "--seed", "-1"),
         "seed must be >= 0, got -1"),
        # once named the descriptor tuple ('monomial', (1,))
        (("oracle", "quad", "--kind", "loggas", "--a", "2", "--n", "2", "--payload", "monomial:1"),
         "a=2 log-gas quadrature needs a payload even per variable, got monomial:1"),
    ],
)
def test_usage_error_messages(capsys, argv, message):
    code, recs = run_cli(capsys, *argv)
    assert code == 2
    assert recs[-1]["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        ("--kind", "loggas", "--n", "2", "--b", "-2"),  # printed Infinity
        ("--n", "2", "--kappa", "-1"),  # printed NaN
        ("--n", "2", "--u", "-1"),  # printed a finite value with a large error estimate
        ("--n", "0"),  # failed inside numpy
    ],
)
def test_oracle_quad_divergent_params_exit_2(capsys, argv):
    code, recs = run_cli(capsys, "oracle", "quad", *argv)
    assert code == 2
    assert recs[-1]["error"]["type"] == "ParamOutOfRangeError"


@pytest.mark.parametrize(
    "argv,unused",
    [
        (("--kind", "loggas", "--kappa", "-1", "--u", "2"), "--u, --kappa"),
        (("--b", "-2"), "--b"),
    ],
)
def test_oracle_quad_names_flags_of_the_other_kind(capsys, argv, unused):
    # the other kind's flags were once ignored, and echoed as though they were used
    code, recs = run_cli(capsys, "oracle", "quad", "--n", "2", *argv)
    assert code == 2
    assert recs[-1]["error"]["message"].endswith(f"does not use {unused}")
    kind = recs[0]["config"]["kind"]
    flags = {"selberg": {"u", "w", "kappa"}, "loggas": {"a", "b", "c"}}
    assert flags[kind] <= set(recs[0]["config"])
    assert not (flags["selberg"] | flags["loggas"]) - flags[kind] & set(recs[0]["config"])


@pytest.mark.parametrize(
    "argv,unused,kept",
    [
        (("--quantity", "var", "--ensemble", "hermitian", "--beta", "3", "--kappa", "7"),
         "--kappa, --beta", {"ensemble", "convention"}),
        (("--quantity", "x2", "--kappa", "1", "--convention", "paper"), "--convention", {"kappa"}),
        (("--quantity", "fm-x4", "--beta", "2", "--ensemble", "full-real"), "--ensemble", {"beta"}),
    ],
)
def test_asympt_names_flags_its_quantity_does_not_use(capsys, argv, unused, kept):
    # these flags were once ignored, and echoed as though they were used
    code, recs = run_cli(capsys, "asympt", *argv)
    assert code == 2 and len(recs) == 2
    assert recs[-1]["error"]["message"].endswith(f"does not use {unused}")
    flags = {"kappa", "beta", "ensemble", "convention"}
    assert set(recs[0]["config"]) & flags == kept


def test_asympt_convention_defaults_for_var_and_sigma2(capsys):
    # the benchmark passes --convention forced for the full balls too
    for argv, limit in (
        (("--quantity", "sigma2", "--ensemble", "full-real"), "1/2"),
        (("--quantity", "var", "--ensemble", "full-complex", "--convention", "forced"), "1/16"),
    ):
        code, recs = run_cli(capsys, "asympt", *argv, "--order", "0")
        assert code == 0
        assert recs[0]["config"]["convention"] == "forced"
        assert recs[1]["laurent"] == [limit]


@pytest.mark.parametrize(
    "argv",
    [
        ("selberg", "--n", "2", "--u", "1", "--w", "1", "--kappa", "-5"),
        ("oracle", "quad", "--n", "2", "--kappa", "-1"),
    ],
)
def test_param_errors_print_rationals_as_p_q(capsys, argv):
    # the bounds were printed as Fraction(1, 2) reprs
    code, recs = run_cli(capsys, *argv)
    assert code == 2
    assert recs[-1]["error"]["message"].endswith("violates kappa > -min[1/2, 1, 1]")


EXACT_COMMANDS = [
    ("selberg", "--n", "2", "--u", "1/2", "--w", "1", "--kappa", "1"),
    ("aomoto", "--n", "3", "--u", "1", "--w", "1", "--kappa", "1/2", "--m", "2"),
    ("jack", "expand", "--lam", "2,1", "--kappa", "1/2"),
    ("kadell", "--lam", "2,1", "--n", "3", "--u", "1", "--w", "1", "--kappa", "2"),
    ("kadell", "--lam", "1,1,1", "--n", "2", "--u", "1", "--w", "1", "--kappa", "1"),
    ("moments", "--ensemble", "hermitian", "--n", "4"),
    ("sigma", "--ensemble", "symmetric", "--n-list", "2:5"),
    ("variance", "--ensemble", "full-complex", "--n-list", "2:5"),
    ("asympt", "--quantity", "x2", "--kappa", "1", "--order", "1"),
    ("remark-beta", "--beta", "2", "--n-list", "4,8"),
    ("covariance", "--ensemble", "hermitian", "--n", "3"),
    ("negcorr", "--field", "r", "--n", "5"),
    ("weingarten", "unitary", "--k", "2", "--cycle-type", "2", "--z", "5"),
]


def _fresh_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run `script` in a new interpreter that imports this selmat."""
    src = os.path.dirname(os.path.dirname(selmat.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True)


def test_exact_commands_run_without_numpy():
    # each CLI call is a fresh process, so an exact command must not pay numpy's import
    script = f"""
import contextlib, io, json, sys
from selmat.cli import main
codes, loaded = [], []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {EXACT_COMMANDS!r}:
        codes.append(main(list(argv)))
    loaded.append("numpy" in sys.modules)
    codes.append(main(["oracle", "quad", "--n", "2", "--points", "8"]))
    loaded.append("numpy" in sys.modules)
print(json.dumps([codes, loaded]))
"""
    res = _fresh_python(script)
    assert res.returncode == 0, res.stderr
    codes, loaded = json.loads(res.stdout)
    assert codes == [0] * (len(EXACT_COMMANDS) + 1)
    # no exact command loads numpy, and the oracle call shows that the check sees it load
    assert loaded == [False, True]


ON_FIRST_USE = ("moments", "oracle", "verify", "weingarten")

# argv (None: `import selmat.cli` alone) -> the on-first-use layers it executes
EXECUTED_LAYERS = [
    (None, []),
    (("jack", "expand", "--lam", "2,1", "--kappa", "1/2"), []),
    (("kadell", "--lam", "2,1", "--n", "3", "--u", "1", "--w", "1", "--kappa", "2"), []),
    (("selberg", "--n", "2", "--u", "1/2", "--w", "1", "--kappa", "1"), []),
    (("aomoto", "--n", "3", "--u", "1", "--w", "1", "--kappa", "1/2", "--m", "2"), []),
    (("sigma", "--ensemble", "symmetric", "--n-list", "2:5"), ["moments"]),
    (("asympt", "--quantity", "x2", "--kappa", "1", "--order", "1"), ["moments"]),
    (("weingarten", "unitary", "--k", "2", "--cycle-type", "2", "--z", "5"), ["weingarten"]),
    (("covariance", "--ensemble", "her", "--n", "3"), ["moments", "weingarten"]),
    (("oracle", "quad", "--n", "2", "--payload", "elementary:1", "--points", "8"), ["oracle"]),
    (("verify", "--criteria", "C2"), list(ON_FIRST_USE)),
]


def test_each_command_executes_only_the_layers_it_calls():
    # each CLI call is a fresh process, so a layer it does not call should cost it nothing;
    # a layer waiting for first use is a module subclass, and reading an attribute would run it
    script = f"""
import contextlib, io, json, sys, types
from selmat.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = 0 if argv is None else main(argv)
executed = [m for m in {ON_FIRST_USE!r} if type(sys.modules["selmat." + m]) is types.ModuleType]
print(json.dumps([code, executed]))
"""
    for argv, expected in EXECUTED_LAYERS:
        res = _fresh_python(script, json.dumps(argv))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == [0, expected], argv


# one attribute each on-first-use layer defines
LAYER_ATTRIBUTES = {
    "moments": "ensemble_moments", "oracle": "quadrature", "verify": "run_all",
    "weingarten": "covariance_report",
}


def test_layers_first_touched_by_threads_at_once_all_execute():
    # a layer's first attribute read executes it; a thread reading it meanwhile once found
    # no attribute there.  Four threads, each starting at another layer, read all four.
    script = f"""
import json, sys, threading
import selmat
sys.setswitchinterval(1e-5)  # hand the interpreter lock round often
attrs = {LAYER_ATTRIBUTES!r}
layers = sorted(attrs)
barrier = threading.Barrier(len(layers))
errors = []
def touch(start):
    barrier.wait()
    for layer in layers[start:] + layers[:start]:
        try:
            getattr(sys.modules["selmat." + layer], attrs[layer])
        except Exception as exc:
            errors.append(repr(exc))
threads = [threading.Thread(target=touch, args=(i,)) for i in range(len(layers))]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps([errors, sum(t.is_alive() for t in threads)]))
"""
    res = _fresh_python(script)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [[], 0]


def test_layer_written_before_its_first_read_keeps_the_write():
    # a write or delete is the first use too: a write made before the layer executed
    # was overwritten when the first read executed it
    script = """
import json
from selmat import moments, verify, weingarten
weingarten.MAX_K_UNITARY = 99
moments.Q_N_FROM = 7
del verify.MC_COUNT
print(json.dumps([weingarten.MAX_K_UNITARY, moments.Q_N_FROM, hasattr(verify, "MC_COUNT"),
                  callable(verify.run_all)]))
"""
    res = _fresh_python(script)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [99, 7, False, True]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_exact_records_are_strict_json(capsys):
    # an exact zero printed "log_value": -Infinity, and a value past 1.8e308
    # printed "float": Infinity; strict JSON parsers reject both
    huge_z = f"{10**310 + 1}/{10**310}"  # Wg^U((1,1), 2, z) = 1/(z^2 - 1) ~ 5e309
    overflow = ("weingarten", "unitary", "--k", "2", "--cycle-type", "1,1", "--z", huge_z)
    for argv in [*EXACT_COMMANDS, overflow]:
        assert main(list(argv)) == 0
        for line in capsys.readouterr().out.splitlines():
            json.loads(line, parse_constant=_refuse_constant)
    code, recs = run_cli(capsys, "kadell", "--lam", "1,1,1", "--n", "2", "--u", "1", "--w", "1",
                         "--kappa", "1")
    assert recs[1]["exact"] == "0" and recs[1]["float"] == 0.0 and recs[1]["log_value"] is None
    code, recs = run_cli(capsys, *overflow)
    assert recs[1]["float"] is None and recs[1]["log_value"] == pytest.approx(713.108, abs=1e-3)


def test_oracle_quad_node_cap_exit_2(capsys, monkeypatch):
    # 200^4 nodes would need ~51 GB for the mesh: refused before any node set is built
    monkeypatch.setattr(oracle, "_node_set", lambda *a: pytest.fail("nodes built past the cap"))
    code, recs = run_cli(capsys, "oracle", "quad", "--n", "4", "--points", "200")
    assert code == 2
    assert recs[-1]["error"]["type"] == "UnsupportedDimensionError"


def test_oracle_quad_payload_refused_before_any_rule(capsys, monkeypatch):
    # an unknown shifted payload once failed only while the rule was evaluated
    monkeypatch.setattr(oracle, "_node_set", lambda *a: pytest.fail("nodes built for a bad payload"))
    code, recs = run_cli(capsys, "oracle", "quad", "--n", "2", "--payload", "shifted:x9")
    assert code == 2 and len(recs) == 2
    assert recs[-1]["error"] == {"type": "ValueError", "message": "unknown shifted payload 'x9'"}


@pytest.mark.parametrize(
    "argv",
    [
        ("selberg", "--n", "2", "--u", "1", "--w", "1", "--kappa", "1/0"),
        ("weingarten", "unitary", "--k", "2", "--cycle-type", "2", "--z", "1/0"),
        ("asympt", "--quantity", "remark", "--beta", "1/0"),
        ("remark-beta", "--beta", "1/0", "--n-list", "2:5"),
        ("oracle", "quad", "--n", "2", "--u", "1/0"),
    ],
)
def test_zero_denominator_is_a_usage_error(argv):
    # Fraction("1/0") once escaped argparse as a ZeroDivisionError traceback, exit 1
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_closed_stdout_ends_without_traceback():
    # the reader takes one line of a ~300 kB sweep and closes the pipe; Python once
    # printed a BrokenPipeError traceback and exited 1, the verification-failure code
    src = os.path.dirname(os.path.dirname(selmat.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["sigma", "--ensemble", "hermitian", "--n-list", "2:2000"]
    with subprocess.Popen([sys.executable, "-m", "selmat.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert json.loads(proc.stdout.readline())["config"]["command"] == "sigma"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in stderr, stderr


def _leaf_commands(parser, path=()):
    """(argv prefix, parser) of every command, read off the parser's own subparsers."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return [leaf for name, sub in action.choices.items()
                    for leaf in _leaf_commands(sub, path + (name,))]
    return [(path, parser)]


EDGE_VALUES = ("-1", "-1/2", "0", "1", "2", "x", "1/0", "1/2", "")
# values that reach the working paths, within bounds that keep every run short:
# n <= 4, count <= 200, points <= 16, k <= 4, partitions of degree <= 8, n-lists in 2:30
IN_RANGE = {
    "--n": ("4",), "--count": ("200",), "--points": ("16",), "--k": ("4",),
    "--lam": ("3,2,1,1,1",), "--cycle-type": ("2,1,1",), "--coset-type": ("2,2",),
    "--n-list": ("2:30", "2,3,5"),
    "--ensemble": ("hermitian", "symmetric", "full-real", "full-complex"),
    "--quantity": tuple(SELECTOR_FLAGS["asympt"][1]),
    "--payload": ("monomial:2,1", "aomoto:1,1,0", "shifted:x9", "sum_sq"),
}
SIZE_FLAGS = ("--count", "--points")  # always given: their defaults start long runs
LEAF_COMMANDS = [leaf for leaf in _leaf_commands(build_parser()) if leaf[0] != ("verify",)]


def _accepts(action, value) -> bool:
    """Whether argparse takes value for action, by the action's own choices or type.

    A type that raises ArithmeticError, which argparse does not catch, is
    refused here too, so that test_cli_contract reports it from main.
    """
    if action.choices is not None:
        return value in action.choices
    try:
        (action.type or str)(value)
    except (TypeError, ValueError, ArithmeticError):
        return False
    return True


@st.composite
def cli_argv(draw):
    """argv of one command; in half the draws every value is one that argparse takes."""
    path, parser = draw(st.sampled_from(LEAF_COMMANDS))
    argv, parsable = list(path), draw(st.booleans())
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag = action.option_strings[0] if action.option_strings else None
        values = tuple(action.choices or ()) + EDGE_VALUES + IN_RANGE.get(flag, ())
        if parsable:
            values = tuple(v for v in values if _accepts(action, v))
        if flag is None:
            argv.append(draw(st.sampled_from(values)))
        elif action.required or flag in SIZE_FLAGS or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    return argv


def test_generated_argv_cover_every_command():
    names = {path for path, _ in LEAF_COMMANDS}
    assert ("selberg",) in names and ("oracle", "quad") in names and len(names) >= 15


@settings(deadline=None, max_examples=200)
@given(cli_argv())
def test_cli_contract(argv):
    # any argv built from the parser ends in 0 or 2 with strict JSON lines on stdout;
    # the only exception is argparse's usage error, SystemExit(2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = 2
    assert code in (0, 2), argv
    for line in out.getvalue().splitlines():
        json.loads(line, parse_constant=_refuse_constant)


def test_verify_fast_subset(capsys):
    code, recs = run_cli(capsys, "verify", "--criteria", "C2,C7")
    assert code == 0
    crits = [r["criterion"] for r in recs if "criterion" in r]
    assert crits == ["C2", "C7"]
    assert all(r["passed"] for r in recs if "criterion" in r)
    assert "summary" in recs[-1]

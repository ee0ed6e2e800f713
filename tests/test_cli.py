"""End-to-end command-line behavior and the exit-code contract."""

from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from fcspin import chains, cli, fcs
from fcspin.cli import main
from fcspin.fcs import KrausFamily
from fcspin.krausfile import dump_state, write_kraus
from fcspin.states import covariant_state, gauge_transform, random_unital_kraus
from fcspin.symmetry import AuditReport, SymmetryVerdict

DATA = str(resources.files("fcspin.data").joinpath("aklt.kraus")).rsplit("/", 1)[0]


@pytest.fixture()
def random_file(tmp_path):
    fam = random_unital_kraus(3, 3, np.random.default_rng(123))
    path = tmp_path / "random.kraus"
    path.write_text(write_kraus(fam, name="random"))
    return str(path)


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.kraus"
    path.write_text("d 3\nk 2\nmatrix 1\nbogus\n")
    return str(path)


def test_repr_d3(capsys):
    assert main(["repr", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert "mu +1" in out
    assert "zeta (1.0,0.0)" in out


def test_repr_d2_sigma_y(capsys):
    assert main(["repr", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "mu -1" in out
    # r0 rows of sigma_y: (0, i) and (-i, 0)
    assert "(-0.0,1.0)" in out
    assert "(-0.0,-1.0)" in out


def test_repr_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["repr", "--d", "0"])
    assert err.value.code == 2


def test_main_builds_one_parser(capsys):
    cli.build_parser.cache_clear()
    assert main(["repr", "--d", "2"]) == 0
    assert main(["repr", "--d", "3"]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    with pytest.raises(SystemExit) as err:
        main(["repr", "--d", "0"])
    assert err.value.code == 2


def test_audit_aklt_passes(capsys):
    assert main(["audit", "@aklt"]) == 0
    out = capsys.readouterr().out
    assert "overall pass" in out
    assert out.count("clause ") == 9


def test_audit_random_fails(capsys):
    assert main(["audit", f"{DATA}/random_unital_d3.kraus"]) == 1
    assert "overall fail" in capsys.readouterr().out


def test_audit_parse_error(bad_file, capsys):
    assert main(["audit", bad_file]) == 2
    assert "line 4" in capsys.readouterr().err


def test_audit_missing_file(capsys):
    assert main(["audit", "/nonexistent/x.kraus"]) == 2


@pytest.mark.parametrize("command", ["audit", "spectrum", "correlate"])
def test_unreadable_path_is_a_usage_error(command, tmp_path, capsys):
    assert main([command, str(tmp_path)]) == 2  # a directory
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:")


def test_audit_d7_covariant_passes_at_defaults(tmp_path, capsys):
    # the length-4 window of d = 7 has 7^8 entries, above the default cap;
    # the bond-space RP Gram never builds it
    path = tmp_path / "cov-s3-j3_2.kraus"
    path.write_text(dump_state(covariant_state(3, Fraction(3, 2)), name="cov"))
    assert main(["audit", str(path)]) == 0
    assert "overall pass" in capsys.readouterr().out


@pytest.mark.parametrize("window, code", [(3, 0), (4, 4)])
def test_audit_d7_covariant_window_cap(window, code, tmp_path, capsys):
    # at the default cap the length-3 window fits (7^6 entries), length 4 not
    path = tmp_path / "cov-s3-j3_2.kraus"
    path.write_text(dump_state(covariant_state(3, Fraction(3, 2)), name="cov"))
    assert main(["audit", str(path), "--window", str(window)]) == code
    out = capsys.readouterr()
    if code == 0:
        assert out.out.splitlines()[-1] == "overall pass"
    else:
        assert "cap of 12 sites or 4000000 entries" in out.err


def test_audit_refused_by_max_dim(monkeypatch, capsys):
    monkeypatch.setattr(fcs, "MAX_WINDOW_ENTRIES", 100)
    assert main(["audit", "@aklt"]) == 4
    err = capsys.readouterr().err
    assert "refused" in err
    assert "cap of 100" in err


@pytest.mark.parametrize("value", ["100", "1", "abc"])
def test_audit_ignores_the_environment_for_its_cap(value, monkeypatch, capsys):
    # the window cap is a module constant; no environment variable moves it
    monkeypatch.setenv("FCS_MAX_DIM", value)
    assert main(["audit", "@aklt"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall pass"


def test_audit_deterministic(capsys):
    main(["audit", "@aklt"])
    first = capsys.readouterr().out
    main(["audit", "@aklt"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("option", [["--seed", "0"], ["--samples", "6"]])
def test_audit_sampling_options_removed(option, capsys):
    with pytest.raises(SystemExit) as err:
        main(["audit", "@aklt"] + option)
    assert err.value.code == 2
    assert option[0] in capsys.readouterr().err


def test_correlate_aklt(capsys):
    assert main(["correlate", "@aklt", "--n-max", "10"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,corr_re,corr_im,abs_corr,bound,margin,ratio"
    rows = [l for l in lines if l[0].isdigit()]
    assert len(rows) == 10
    # ratio column settles at -1/3
    ratio = float(rows[5].split(",")[-1])
    assert abs(ratio - (-1 / 3)) < 1e-9
    assert "# verdict pass" in out


def _row_by_row_correlate(path, n_max):
    """The correlate output as printed one row at a time, with _fmt on
    every field, before the table became one string."""
    name, state = cli._load(path, 1e-9)
    rep = cli.build_spin_rep(state.d)
    cert = cli.decay_certificate(state, rep.Sz, rep.Sz, n_max, 1e-9)
    lines = ["n,corr_re,corr_im,abs_corr,bound,margin,ratio"]
    prev = None
    for row in cert.rows:
        ratio = "" if prev is None or abs(prev) < 1e-300 else cli._fmt(
            (row.corr / prev).real)
        lines.append(",".join([
            str(row.n), cli._fmt(row.corr.real), cli._fmt(row.corr.imag),
            cli._fmt(abs(row.corr)), cli._fmt(row.bound), cli._fmt(row.margin), ratio,
        ]))
        prev = row.corr
    lines += [f"# delta {cli._fmt(cert.delta)}",
              f"# beta_max {cli._fmt(cert.beta_max)}", f"# verdict {cert.verdict}"]
    return "\n".join(lines) + "\n"


@pytest.fixture()
def gauged_covariant_file(tmp_path):
    z = np.random.default_rng(4).normal(size=(2, 4, 4))
    W = np.linalg.qr(z[0] + 1j * z[1])[0]
    st = gauge_transform(covariant_state(1, Fraction(3, 2)), W)
    path = tmp_path / "covariant.kraus"
    path.write_text(dump_state(st, name="covariant"))
    return str(path)


@pytest.mark.parametrize("n_max", [1, 270])
@pytest.mark.parametrize("which", ["covariant", "random"])
def test_correlate_table_matches_row_by_row_printer(which, n_max, gauged_covariant_file,
                                                    capsys):
    # the random family is not self-adjoint, so its bounds are SVD norms
    path = (gauged_covariant_file if which == "covariant"
            else f"{DATA}/random_unital_d3.kraus")
    main(["correlate", path, "--n-max", str(n_max)])
    assert capsys.readouterr().out == _row_by_row_correlate(path, n_max)


def test_correlate_product_zeros(capsys):
    assert main(["correlate", f"{DATA}/product_d2.kraus"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        if line[0].isdigit():
            assert abs(float(line.split(",")[3])) < 1e-12


def test_correlate_unknown_observable(capsys):
    for option in ("--A", "--B"):
        with pytest.raises(SystemExit) as err:
            main(["correlate", "@aklt", option, "Qx"])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == ""
        assert option in err_text and "Qx" in err_text


def test_spectrum_aklt(capsys):
    assert main(["spectrum", "@aklt"]) == 0
    out = capsys.readouterr().out
    assert "# fixed_multiplicity 1" in out
    values = sorted(
        float(line.split(",")[1])
        for line in out.splitlines() if line and line[0].isdigit()
    )
    assert np.abs(np.array(values) - np.array([-1 / 3] * 3 + [1.0])).max() < 1e-9


@pytest.fixture()
def dephasing_file(tmp_path):
    """(sqrt(1-p) I, sqrt(p/2) X, sqrt(p/2) Z) at p = 5e-10: transfer
    eigenvalues 1, 1-p, 1-p, 1-2p, so tol decides the fixed multiplicity."""
    p = 5e-10
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    Z = np.diag([1.0, -1.0])
    fam = KrausFamily((np.sqrt(1 - p) * np.eye(2), np.sqrt(p / 2) * X,
                       np.sqrt(p / 2) * Z))
    path = tmp_path / "dephasing.kraus"
    path.write_text(write_kraus(fam, rho=np.eye(2) / 2))
    return str(path)


def _footer(out):
    return dict(line[2:].split(" ", 1) for line in out.splitlines()
                if line.startswith("# "))


def test_spectrum_tol_reaches_multiplicity(dephasing_file, capsys):
    assert main(["spectrum", dephasing_file]) == 0
    foot = _footer(capsys.readouterr().out)
    assert foot["delta"] == "1.0" and foot["fixed_multiplicity"] != "1"
    assert main(["spectrum", dephasing_file, "--tol", "1e-12"]) == 0
    foot = _footer(capsys.readouterr().out)
    assert foot["fixed_multiplicity"] == "1"
    assert abs(float(foot["delta"]) - (1 - 5e-10)) <= 1e-15


def test_correlate_tol_reaches_certificate(dephasing_file, capsys):
    assert main(["correlate", dephasing_file, "--n-max", "3"]) == 1
    assert _footer(capsys.readouterr().out)["delta"] == "1.0"
    assert main(["correlate", dephasing_file, "--n-max", "3",
                 "--tol", "1e-12"]) == 0
    foot = _footer(capsys.readouterr().out)
    assert abs(float(foot["delta"]) - (1 - 5e-10)) <= 1e-15
    assert foot["verdict"] == "pass"


def test_correlate_without_a_gap_fails(tmp_path, capsys):
    # (sigma_x, i sigma_y) / sqrt 2 is periodic: delta = 1 and no decay rate
    fam = KrausFamily((np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2),
                       np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2)))
    path = tmp_path / "periodic.kraus"
    path.write_text(write_kraus(fam, rho=np.eye(2) / 2))
    assert main(["correlate", str(path), "--n-max", "4"]) == 1
    foot = _footer(capsys.readouterr().out)
    assert foot["delta"] == "1.0" and foot["beta_max"] == "0.0"
    assert foot["verdict"] == "fail"


def test_ed_xxx(capsys):
    assert main(["ed", "--model", "xxx", "--d", "3", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "degeneracy 1" in out
    assert "r,total,zz" in out


def test_ed_rp(capsys):
    assert main(["ed", "--d", "2", "--n", "4", "--beta", "1.0", "--rp"]) == 0
    assert "rp_status pass" in capsys.readouterr().out


def test_ed_oversize(capsys):
    assert main(["ed", "--d", "3", "--n", "12"]) == 4
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("argv, dim", [(["--d", "2", "--n", "4", "--J", "0"], 16),
                                       (["--d", "1", "--n", "4"], 1)])
def test_ed_zero_hamiltonian(argv, dim, capsys):
    # no term has an entry: E0 = 0 on the whole space, and no gap
    assert main(["ed"] + argv) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
    assert float(fields["ground_energy"]) == 0.0
    assert fields["degeneracy"] == str(dim) and fields["gap"] == "nan"


def test_ed_ground_space_over_the_block_cap_is_refused(capsys):
    # H = 0 on d = 3, n = 8: the ground space is all 6561 states, and its
    # vectors alone would take 689 MB
    assert main(["ed", "--d", "3", "--n", "8", "--J", "0"]) == 4
    assert "ground space of 6561 rows" in capsys.readouterr().err


def test_ed_ferromagnet_multiplet_above_the_gibbs_cap(capsys):
    # the ferromagnetic ground space is the 17-state spin-8 multiplet with
    # E0 = -n s^2, and the gap is the one-magnon energy 2 s |J| (1 - cos 2pi/n)
    assert main(["ed", "--d", "3", "--n", "8", "--J", "-1"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
    assert fields["degeneracy"] == "17"
    assert abs(float(fields["ground_energy"]) + 8) <= 1e-12
    assert abs(float(fields["gap"]) - (2 - np.sqrt(2))) <= 1e-12


@pytest.mark.parametrize("argv, code", [
    (["ed", "--d", "2", "--n", "5", "--rp"], 2),          # odd chain
    (["ed", "--d", "2", "--n", "4", "--r-max", "7"], 2),  # r_max >= n
    (["ed", "--d", "3", "--n", "12", "--beta", "1"], 4),  # chain above its cap
])
def test_ed_error_prints_no_partial_report(argv, code, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""


@pytest.mark.parametrize("argv, message", [
    (["ed", "--d", "3", "--n", "7", "--rp"],
     "reflection about the central bond needs an even chain"),
    (["ed", "--d", "2", "--n", "4", "--r-max", "4"],
     "r_max must be smaller than the number of sites"),
])
def test_ed_refuses_bad_options_before_building_the_chain(argv, message,
                                                          monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("build_chain reached")

    monkeypatch.setattr(cli, "build_chain", unreachable)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ed_thermal_rp_on_the_largest_chain(capsys):
    # 6561 states: the Gibbs state and the RP Gram are held by blocks
    assert main(["ed", "--d", "3", "--n", "8", "--beta", "1", "--rp"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
    assert fields["degeneracy"] == "1"
    assert fields["rp_status"] == "pass"


def test_demo_aklt(capsys):
    assert main(["demo-aklt"]) == 0
    out = capsys.readouterr().out
    assert "verdict pass" in out
    assert "delta 0.3333333333333333" in out


@pytest.mark.parametrize("command", ["audit", "correlate", "spectrum"])
@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_tol_rejected_at_boundary(command, tol, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "@aklt", "--tol", tol])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "--tol" in err_text
    assert "not unital" not in err_text


@pytest.mark.parametrize("flag, value", [
    ("--beta", "nan"), ("--beta", "inf"), ("--beta", "-1"),
    ("--J", "nan"), ("--J", "inf"), ("--J", "-inf"),
])
def test_ed_non_finite_rejected_at_boundary(flag, value, capsys):
    with pytest.raises(SystemExit) as err:
        main(["ed", "--d", "2", "--n", "4", "--rp", flag, value])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}:" in out.err


@pytest.mark.parametrize("argv, builds", [
    (["ed", "--d", "2", "--n", "4", "--beta", "0.7", "--rp"], 1),
    (["ed", "--d", "2", "--n", "4", "--rp"], 1),
    (["ed", "--d", "2", "--n", "4", "--beta", "0.7"], 1),
    (["ed", "--d", "2", "--n", "4"], 0),
])
def test_ed_builds_one_gibbs_state(argv, builds, monkeypatch, capsys):
    calls = []
    original = chains.gibbs

    def counted(system, beta):
        calls.append(beta)
        return original(system, beta)

    monkeypatch.setattr(chains, "gibbs", counted)
    monkeypatch.setattr(cli, "gibbs", counted)
    assert main(argv) == 0
    assert len(calls) == builds


def test_ed_with_beta_splits_blocks_once(monkeypatch, capsys):
    calls = []
    original = chains._orbit_blocks

    def counted(H, *symmetries):
        calls.append(H.shape)
        return original(H, *symmetries)

    monkeypatch.setattr(chains, "_orbit_blocks", counted)
    assert main(["ed", "--d", "3", "--n", "6", "--beta", "0.7", "--rp"]) == 0
    assert calls == [(729, 729)]


def _stub_audit(statuses):
    """A theorem_audit stand-in whose report has the given clause statuses."""
    def audit(state, rep, twist, windows, tol):
        return AuditReport(hypotheses=tuple(
            SymmetryVerdict(f"clause-{i}", 0, 0.0, 1e-8, status)
            for i, status in enumerate(statuses)), conclusions=(), delta=0.5)
    return audit


@pytest.mark.parametrize("statuses, code, overall", [
    (("pass", "indeterminate", "pass"), 3, "overall indeterminate"),
    (("indeterminate", "fail", "pass"), 1, "overall fail"),
    (("fail", "indeterminate"), 1, "overall fail"),
])
def test_audit_overall_status_and_exit_code(statuses, code, overall,
                                            monkeypatch, capsys):
    monkeypatch.setattr(cli, "theorem_audit", _stub_audit(statuses))
    assert main(["audit", "@aklt"]) == code
    assert capsys.readouterr().out.splitlines()[-1] == overall


@pytest.mark.parametrize("option, message", [
    ("--window", "argument --window: expected an integer, got 'abc'"),
    ("--tol", "argument --tol: expected a number, got 'abc'"),
])
def test_audit_non_numeric_option_is_a_usage_error(option, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(["audit", "@aklt", option, "abc"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err

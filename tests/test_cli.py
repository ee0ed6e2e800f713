"""End-to-end command-line behavior and the exit-code contract."""

from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from fcspin import chains, cli
from fcspin.cli import main
from fcspin.fcs import KrausFamily
from fcspin.krausfile import dump_state, write_kraus
from fcspin.states import covariant_state, random_unital_kraus

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


def test_audit_invalid_max_dim(monkeypatch, capsys):
    monkeypatch.setenv("FCS_MAX_DIM", "abc")
    assert main(["audit", "@aklt"]) == 2
    assert "FCS_MAX_DIM" in capsys.readouterr().err


def test_audit_d7_covariant_passes_at_defaults(tmp_path, capsys):
    # the length-4 window of d = 7 has 7^8 entries, above the default cap;
    # the bond-space RP Gram never builds it
    path = tmp_path / "cov-s3-j3_2.kraus"
    path.write_text(dump_state(covariant_state(3, Fraction(3, 2)), name="cov"))
    assert main(["audit", str(path)]) == 0
    assert "overall pass" in capsys.readouterr().out


def test_audit_refused_by_max_dim(monkeypatch, capsys):
    monkeypatch.setenv("FCS_MAX_DIM", "100")
    assert main(["audit", "@aklt"]) == 4
    assert "refused" in capsys.readouterr().err


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


def test_correlate_product_zeros(capsys):
    assert main(["correlate", f"{DATA}/product_d2.kraus"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        if line[0].isdigit():
            assert abs(float(line.split(",")[3])) < 1e-12


def test_correlate_unknown_observable(capsys):
    assert main(["correlate", "@aklt", "--A", "Qx"]) == 2


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


def test_ed_with_beta_diagonalizes_once(monkeypatch, capsys):
    calls = []
    original = chains._orbit_blocks

    def counted(H, *symmetries):
        calls.append(H.shape)
        return original(H, *symmetries)

    monkeypatch.setattr(chains, "_orbit_blocks", counted)
    assert main(["ed", "--d", "3", "--n", "6", "--beta", "0.7", "--rp"]) == 0
    assert calls == [(729, 729)]

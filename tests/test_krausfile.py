"""Textual Kraus-file format: parsing, diagnostics, round trips."""

import numpy as np
import pytest

from fcspin import aklt_kraus, krausfile, random_unital_kraus
from fcspin.errors import KrausFileError
from fcspin.krausfile import dump_state, load_state, read_kraus, write_kraus
from fcspin.states import aklt_state, direct_sum, product_kraus


def test_round_trip_bit_identical():
    rng = np.random.default_rng(99)
    fam = random_unital_kraus(3, 2, rng)
    text = write_kraus(fam, name="sample")
    name, parsed, rho = read_kraus(text)
    assert name == "sample"
    assert rho is None
    for a, b in zip(fam.v, parsed.v):
        assert (a == b).all()  # exact, not approximate
    assert write_kraus(parsed, name=name) == text


def test_round_trip_with_rho():
    st = aklt_state()
    text = dump_state(st, name="aklt")
    name, loaded = load_state(text)
    assert name == "aklt"
    assert (loaded.rho == st.rho).all()


def test_comments_and_blank_lines():
    text = write_kraus(aklt_kraus(), name="aklt")
    noisy = "# a comment\n\n" + text.replace("matrix 1", "matrix 1  # first")
    _, fam, _ = read_kraus(noisy)
    for a, b in zip(aklt_kraus().v, fam.v):
        assert (a == b).all()


def test_error_line_numbers():
    with pytest.raises(KrausFileError) as err:
        read_kraus("d 3\nk 2\nmatrix 1\nbogus\n")
    assert err.value.line == 4

    with pytest.raises(KrausFileError) as err:
        read_kraus("d 3\nk 2\nmatrix 1\n(1,0) nope\n")
    assert err.value.line == 4
    assert "pair" in err.value.message


def test_missing_headers():
    with pytest.raises(KrausFileError):
        read_kraus("k 2\nd 3\n")  # wrong order
    with pytest.raises(KrausFileError):
        read_kraus("d x\nk 2\n")
    with pytest.raises(KrausFileError):
        read_kraus("d 0\nk 2\n")


def test_truncated_block():
    text = "d 2\nk 2\nmatrix 1\n(1,0) (0,0)\n"
    with pytest.raises(KrausFileError):
        read_kraus(text)


def test_trailing_content_rejected():
    text = write_kraus(aklt_kraus()) + "extra stuff\n"
    with pytest.raises(KrausFileError):
        read_kraus(text)


def test_wrong_matrix_label():
    text = "d 2\nk 1\nmatrix 1\n(1,0)\nmatrix 3\n(0,0)\n"
    with pytest.raises(KrausFileError):
        read_kraus(text)


def test_nonunital_rejected_on_load():
    text = "d 2\nk 1\nmatrix 1\n(1,0)\nmatrix 2\n(1,0)\n"
    with pytest.raises(KrausFileError):
        load_state(text)


def test_bad_stored_rho_rejected():
    st = aklt_state()
    bad_rho = np.array([[0.9, 0.0], [0.0, 0.1]])
    text = write_kraus(st.kraus, rho=bad_rho)
    with pytest.raises(KrausFileError):
        load_state(text)


@pytest.mark.parametrize("stored_rho, calls", [(True, 0), (False, 1)])
def test_fixed_point_solved_only_without_stored_rho(stored_rho, calls,
                                                    monkeypatch):
    seen = []
    solve = krausfile.fixed_point

    def counting(*args, **kwargs):
        seen.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(krausfile, "fixed_point", counting)
    st = aklt_state()
    load_state(write_kraus(st.kraus, rho=st.rho if stored_rho else None))
    assert len(seen) == calls


@pytest.mark.parametrize("eps", [1e-15, 5e-10, 1e-9])
def test_stored_rho_faithful_only_to_tol_rejected(eps):
    # every diagonal rho is invariant under this family; eps <= tol = 1e-9
    fam = direct_sum(product_kraus([1.0, 0.0]), product_kraus([0.0, 1.0]))
    text = write_kraus(fam, rho=np.diag([1 - eps, eps]))
    with pytest.raises(KrausFileError, match="faithful"):
        load_state(text, tol=1e-9)


def test_stored_rho_not_hermitian_rejected():
    # invariant, of unit trace and with a positive Hermitian part, but the
    # block coupling the two copies is not mirrored
    fam = direct_sum(aklt_kraus(), aklt_kraus())
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    rho = np.eye(4) / 4 + 0.1 * np.kron(e12, np.eye(2))
    text = write_kraus(fam, rho=rho)
    with pytest.raises(KrausFileError, match="Hermitian"):
        load_state(text)
    load_state(write_kraus(fam, rho=np.eye(4) / 4))


@pytest.mark.parametrize("entry", ["(nan,0.0)", "(inf,0)", "(0,-inf)"])
def test_non_finite_entry_rejected(entry):
    text = f"d 2\nk 1\nmatrix 1\n(1,0)\n# entries follow\nmatrix 2\n{entry}\n"
    with pytest.raises(KrausFileError) as err:
        read_kraus(text)
    assert err.value.line == 7
    assert "non-finite" in err.value.message

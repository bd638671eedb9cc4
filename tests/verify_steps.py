"""The verifier's steps, as `cli._verification_report` runs them, for tests
that call one of them on a presentation: the file check's record, and the
reconstruction of the Tietze reduction the order check would make."""

from graphpres.coset import COSET_LIMIT
from graphpres.presentation import tietze_reduce
from graphpres.verify import CheckedFile, build_kozsul_model, check_presentation_file


def checked_file(derived, ag) -> CheckedFile:
    """The file check's record; a refused file fails the test with the reason."""
    checked = check_presentation_file(derived, ag)
    if isinstance(checked, str):
        raise AssertionError(f"the file check refused the file: {checked}")
    return checked


def kozsul_model(derived, ag, limit=COSET_LIMIT):
    return build_kozsul_model(checked_file(derived, ag), tietze_reduce(derived.presentation),
                              limit)

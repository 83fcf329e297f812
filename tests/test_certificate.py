"""The conclusion rule: the status and legal basis that a surface and its
checks support, read off the checks alone."""

import pytest

from brunnian.certificate import conclude

SPHERE = ("sphere", 6)
GENUS2 = ("genus2",)
PA_11 = ("pseudo_anosov", "theorem-1.1")
PA_12 = ("pseudo_anosov", "theorem-1.2")
PA_CB = ("pseudo_anosov", "casson-bleiler")
TRIVIAL = ("trivial", "none")
OPEN = ("undetermined", "none")


def given(trivial, brunnian, rho_mod3_identity=None, casson_bleiler=None):
    """Checks in certificate order; genus-2 keys only where given."""
    doc = {"pure": True, "trivial": trivial,
           "brunnian_per_strand": [brunnian] * 6, "brunnian": brunnian}
    if rho_mod3_identity is not None:
        doc["rho_mod3_identity"] = rho_mod3_identity
    if casson_bleiler is not None:
        doc["casson_bleiler"] = casson_bleiler
    return doc


CASES = {
    # A trivial word is trivial, whatever else holds.
    "trivial-sphere": (SPHERE, given(True, True), TRIVIAL),
    "trivial-over-theorem-and-fallback": (
        GENUS2, given(True, True, True, "pa_certified"), TRIVIAL),
    "trivial-over-fallback": (
        GENUS2, given(True, False, False, "pa_certified"), TRIVIAL),
    # Theorem 1.1: a nontrivial Brunnian sphere word.
    "theorem-1.1": (SPHERE, given(False, True), PA_11),
    "theorem-1.1-ignores-fallback": (
        SPHERE, given(False, True, casson_bleiler="pa_certified"), PA_11),
    # Theorem 1.2 also needs the mod-3 action to be the identity.
    "theorem-1.2": (GENUS2, given(False, True, True, "inconclusive"), PA_12),
    "theorem-1.2-over-fallback": (
        GENUS2, given(False, True, True, "pa_certified"), PA_12),
    "theorem-1.2-needs-mod3-identity": (
        GENUS2, given(False, True, False, "inconclusive"), OPEN),
    "theorem-1.2-needs-the-mod3-check": (GENUS2, given(False, True), OPEN),
    "mod3-failure-falls-back": (
        GENUS2, given(False, True, False, "pa_certified"), PA_CB),
    # A null verdict, left by a budget abort, never reaches a theorem.
    "null-trivial-sphere": (SPHERE, given(None, True), OPEN),
    "null-trivial-genus2": (
        GENUS2, given(None, True, True, "inconclusive"), OPEN),
    "null-trivial-falls-back": (
        GENUS2, given(None, True, True, "pa_certified"), PA_CB),
    "null-brunnian-sphere": (SPHERE, given(False, None), OPEN),
    "null-brunnian-genus2": (
        GENUS2, given(False, None, True, "inconclusive"), OPEN),
    # Casson-Bleiler concludes where membership does not.
    "casson-bleiler": (
        GENUS2, given(False, False, False, "pa_certified"), PA_CB),
    # Anything else is undetermined.
    "undetermined-sphere": (SPHERE, given(False, False), OPEN),
    "undetermined-genus2": (
        GENUS2, given(False, False, True, "inconclusive"), OPEN),
}


@pytest.mark.parametrize("surface, checks, expected", CASES.values(),
                         ids=CASES.keys())
def test_conclude(surface, checks, expected):
    assert conclude(surface, checks) == expected

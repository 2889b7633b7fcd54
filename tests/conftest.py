"""Fixtures and helpers shared by the test modules."""

import time
from fractions import Fraction

import pytest

from wfano.catalog import SearchBounds, classify
from wfano.symalg import GradedPolynomial
from wfano.wspace import parse_monomial


@pytest.fixture(scope="session")
def default_catalog():
    """The catalog at the default search bounds and the seconds its search
    took, computed once per session; tests only read it."""
    t0 = time.time()
    records = classify(SearchBounds())
    return records, time.time() - t0


def parse_polynomial(text, ws, grade):
    """Parse the text form emitted by format_polynomial ("-3/2*x^2*y*w + w^3")."""
    terms = {}
    text = text.replace("- ", "+ -").replace(" ", "")
    if text in ("", "0"):
        return GradedPolynomial(ws, grade, {})
    for chunk in text.split("+"):
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign, chunk = Fraction(-1), chunk[1:]
        coeff = sign
        mono_parts = []
        for fct in chunk.split("*"):
            if fct and (fct[0].isdigit() or "/" in fct):
                coeff *= Fraction(fct)
            else:
                mono_parts.append(fct)
        m = parse_monomial("*".join(mono_parts)) if mono_parts else (0, 0, 0, 0, 0)
        terms[m] = terms.get(m, Fraction(0)) + coeff
    return GradedPolynomial(ws, grade, {m: c for m, c in terms.items() if c != 0})

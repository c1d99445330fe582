"""Every JSON format round-trips every field: a potential, a Stokes matrix,
an isomonodromic state and a path, written as JSON text and read back
through the dict readers the command line uses."""

import json
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings, strategies as st

from frobenii.exact import ExpPolynomial, QuadScalar
from frobenii.frobenius import FrobeniusPotential, potential_from_dict, potential_to_dict
from frobenii.semisimple import IsoState, path_from_list, state_from_dict, state_to_dict
from frobenii.stokes import StokesMatrix, stokes_from_dict, stokes_to_dict

_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=40)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_complex = st.builds(complex, _floats, _floats)


def _through_text(data):
    return json.loads(json.dumps(data))


@st.composite
def _field_values(draw, m, nonzero=False):
    """A value a + b sqrt(m) of Q(sqrt m); b = 0 when m = 1."""
    a = draw(_fractions)
    b = F(0) if m == 1 else draw(_fractions)
    if nonzero and a == b == 0:
        a = F(1)
    return QuadScalar(a, b, m)


@st.composite
def potentials(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([1, 2, 5]))
    unity = draw(st.integers(0, n - 1))
    q = [F(0) if a == unity else draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(3, 2)]))
         for a in range(n)]
    r = [draw(_fractions) if qa == 1 else F(0) for qa in q]
    keys = st.tuples(st.tuples(*[st.integers(0, 5)] * n), st.tuples(*[st.integers(0, 3)] * n))
    terms = draw(st.dictionaries(keys, _field_values(m, nonzero=True), max_size=6))
    trunc = None
    if draw(st.booleans()):
        var = draw(st.integers(0, n - 1))
        top = max((exps[var] for _, exps in terms), default=0)
        trunc = (var, draw(st.integers(max(top, 1), 6)))
    return FrobeniusPotential(n=n, F=ExpPolynomial(n, terms), d=draw(_fractions),
                              q=tuple(q), r=tuple(r), unity_index=unity,
                              name=draw(st.text(max_size=8)), exp_truncation=trunc)


@settings(max_examples=100, deadline=None)
@given(potentials())
def test_potential_roundtrips_through_json_text(P):
    data = potential_to_dict(P)
    Q = potential_from_dict(_through_text(data))
    assert (Q.n, Q.F, Q.d, Q.q, Q.r, Q.unity_index, Q.name, Q.exp_truncation) == \
        (P.n, P.F, P.d, P.q, P.r, P.unity_index, P.name, P.exp_truncation)
    assert potential_to_dict(Q) == data


@st.composite
def stokes_matrices(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.sampled_from([1, 2, 5]))
    return StokesMatrix([[draw(_field_values(m)) if j > i else QuadScalar(int(i == j))
                          for j in range(n)] for i in range(n)])


@settings(max_examples=100, deadline=None)
@given(stokes_matrices())
def test_stokes_matrix_roundtrips_through_json_text(S):
    data = stokes_to_dict(S)
    S2 = stokes_from_dict(_through_text(data))
    assert S2 == S and (S2.n, S2.m, S2.flat) == (S.n, S.m, S.flat)
    assert stokes_to_dict(S2) == data


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.lists(_complex, min_size=n, max_size=n),
                        st.lists(_complex, min_size=n * n, max_size=n * n))))
def test_iso_state_roundtrips_through_json_text(uv):
    u, flat = uv
    n = len(u)
    st0 = IsoState(u=u, V=np.array(flat, dtype=complex).reshape(n, n))
    st1 = state_from_dict(_through_text(state_to_dict(st0)))
    assert st1.u == u
    assert st1.V.shape == (n, n) and np.array_equal(st1.V, st0.V)
    assert state_to_dict(st1) == state_to_dict(st0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_complex, min_size=n, max_size=n), max_size=6)))
def test_path_roundtrips_through_json_text(path):
    data = [[[z.real, z.imag] for z in vert] for vert in path]
    assert path_from_list(_through_text(data)) == path

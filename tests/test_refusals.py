"""Every input rule of the library and of JobConfig refuses what it should.

One table: each row makes one call that a rule must refuse, and names the
exception and a fragment of its message.  The archimedean rows run each
shape's one check through all of its callers: the parameter class, the
closed form and the quadrature oracle.
"""

import math
from fractions import Fraction

import pytest

from weakmellin import arch_zeta, oracle, padic_core, padic_zeta, specfun, zero_engine
from weakmellin.arch_zeta import (
    ComplexCn,
    ComplexHermitian,
    ComplexSquare,
    Real,
    RealRadial,
    RealSign,
    Trivial,
)
from weakmellin.cli import ConfigError, JobConfig
from weakmellin.errors import DegenerateError, DomainError, NonIntegerWindingError
from weakmellin.global_zeta import GlobalSpec

_INF, _NAN = math.inf, math.nan
_S = 0.5 + 1j
_NONZERO = "quadratic coefficient must be nonzero"
_FINITE = "needs finite coefficients"


def _arch_rows():
    """(id, call, fragment) for each shape's check, through the class, the
    closed form and the oracle (both oracles of the real shape), on a zero
    or negative coefficient and on a non-finite one."""
    shapes = [
        ("real", [("class", lambda a, b: Real(a, b)),
                  ("closed", lambda a, b: arch_zeta.zeta_real(a, b, _S)),
                  ("oracle", lambda a, b: oracle.oracle_real_mellin(a, b, _S)),
                  ("sign-oracle", lambda a, b: oracle.oracle_real_sign_mellin(a, b, _S))]),
        ("hermitian", [("class", lambda a, b: ComplexHermitian(a, b)),
                       ("closed", lambda a, b: arch_zeta.zeta_complex_hermitian(a, b, 0, _S)),
                       ("oracle", lambda a, b: oracle.oracle_hermitian_mellin(a, b, 0, _S))]),
        ("square", [("class", lambda a, b: ComplexSquare(a, b)),
                    ("closed", lambda a, b: arch_zeta.zeta_complex_square(a, b, 0, _S)),
                    ("oracle", lambda a, b: oracle.oracle_complex_square_mellin(a, b, 0, _S))]),
        ("radial", [("class", lambda a, b: RealRadial(2, a, b)),
                    ("closed", lambda a, b: arch_zeta.zeta_rn_radial(a, b, 2, _S)),
                    ("oracle", lambda a, b: oracle.oracle_radial_mellin(a, b, 2, _S))]),
    ]
    degenerate = {"real": _NONZERO, "hermitian": "must be positive",
                  "square": _NONZERO, "radial": _NONZERO}
    rows = []
    for shape, callers in shapes:
        for caller, call in callers:
            rows += [
                (f"{shape}-{caller}-zero-a", lambda c=call: c(0.0, 0.0), degenerate[shape]),
                (f"{shape}-{caller}-inf-a", lambda c=call: c(_INF, 0.0), _FINITE),
                (f"{shape}-{caller}-nan-a", lambda c=call: c(_NAN, 0.0), _FINITE),
                (f"{shape}-{caller}-inf-b", lambda c=call: c(1.0, _INF), _FINITE),
                (f"{shape}-{caller}-nan-b", lambda c=call: c(1.0, _NAN), _FINITE),
            ]
    rows += [
        ("radial-class-dimension", lambda: RealRadial(0, 1.0), "at least 1"),
        ("radial-closed-dimension", lambda: arch_zeta.zeta_rn_radial(1.0, 0.0, 0, _S),
         "at least 1"),
        ("radial-class-norm", lambda: RealRadial(1, 1.0, -1.0), "through its norm"),
        ("radial-closed-norm", lambda: arch_zeta.zeta_rn_radial(1.0, -1.0, 1, _S),
         "through its norm"),
    ]
    return [(ident, DomainError, call, fragment) for ident, call, fragment in rows]


def _oracle_point_rows():
    """(id, error, call, fragment): each of the seven oracles refuses an s
    with an infinite imaginary part and a NaN s, at inputs it otherwise
    answers."""
    oracles = [
        ("padic", lambda s: oracle.oracle_padic_mellin(1, 0, 5, s)),
        ("vector", lambda s: oracle.oracle_padic_vector(((1, 0),), 5, s)),
        ("real", lambda s: oracle.oracle_real_mellin(1.0, 0.5, s)),
        ("real-sign", lambda s: oracle.oracle_real_sign_mellin(1.0, 0.5, s)),
        ("hermitian", lambda s: oracle.oracle_hermitian_mellin(1.0, 0.3, 0, s)),
        ("radial", lambda s: oracle.oracle_radial_mellin(1.0, 0.5, 2, s)),
        ("square", lambda s: oracle.oracle_complex_square_mellin(1.0, 0.25, 0, s)),
    ]
    return [
        (f"oracle-{name}-{label}-s", DomainError, lambda c=call, s=s: c(s), "needs a finite s")
        for name, call in oracles
        for label, s in (("inf", complex(0.5, _INF)), ("nan", complex(_NAN, 0.0)))
    ]


def _config(**fields):
    return lambda: JobConfig.from_mapping(fields)


_TABLE = _arch_rows() + _oracle_point_rows() + [
    # archimedean dispatch, index, rho and reflection law
    ("zeta-real-char", DomainError,
     lambda: arch_zeta.zeta_real(1.0, 0.0, _S, ComplexCn(1)), "at the real place"),
    ("zeta-arch-real-char", DomainError,
     lambda: arch_zeta.zeta_arch(Real(1.0), ComplexCn(1), _S), "trivial or sign"),
    ("zeta-arch-type", DomainError,
     lambda: arch_zeta.zeta_arch(object(), Trivial(), _S), "unsupported parameter type"),
    ("zeta-arch-complex-char", DomainError,
     lambda: arch_zeta.zeta_arch(ComplexHermitian(1.0), RealSign(), _S), "angular characters"),
    ("weil-index-type", DomainError,
     lambda: arch_zeta.weil_index_arch(object()), "unsupported parameter type"),
    ("tate-rho-char", DomainError,
     lambda: arch_zeta.tate_rho(_S, object()), "unsupported character"),
    ("reflection-radial-char", DomainError,
     lambda: arch_zeta._reflection(RealRadial(2, 1.0), RealSign(), _S), "trivial character only"),
    # archimedean oracles
    ("oracle-real-sign", DomainError,
     lambda: oracle.oracle_real_sign_mellin(0.0, 1.0, _S), _NONZERO),
    ("oracle-hermitian", DomainError,
     lambda: oracle.oracle_hermitian_mellin(-1.0, 0.0, 0, _S), "must be positive"),
    ("oracle-radial-a", DomainError,
     lambda: oracle.oracle_radial_mellin(0.0, 0.0, 2, _S), _NONZERO),
    ("oracle-radial-dimension", DomainError,
     lambda: oracle.oracle_radial_mellin(1.0, 0.0, 0, _S), "at least 1"),
    ("oracle-radial-norm", DomainError,
     lambda: oracle.oracle_radial_mellin(1.0, -1.0, 2, _S), "through its norm"),
    ("oracle-square", DomainError,
     lambda: oracle.oracle_complex_square_mellin(0.0, 0.0, 0, _S), _NONZERO),
    # p-adic characters, factors and places
    ("unit-character-exponent", DomainError,
     lambda: padic_core.UnitCharacter(5, -1), "exponent must be >= 0"),
    ("unit-character-unramified-index", DomainError,
     lambda: padic_core.UnitCharacter(5, 0, 1), "trivial here"),
    ("unit-character-conductor", DomainError,
     lambda: padic_core.UnitCharacter(5, 1, 0), "exact conductor"),
    ("unit-character-non-unit", DomainError,
     lambda: padic_core.UnitCharacter(5, 1, 1).phase(10), "not a unit"),
    ("rat-mod-composite", DomainError,
     lambda: padic_core.rat_mod(Fraction(1, 2), 9, 1), "must be a prime"),
    ("ramified-at-2", DomainError,
     lambda: padic_zeta.local_factor_ramified(1, 0, 2, padic_core.UnitCharacter(2, 1, 1)),
     "p = 2 are out of scope"),
    ("ramified-foreign-char", DomainError,
     lambda: padic_zeta.local_factor_ramified(1, 0, 3, padic_core.UnitCharacter(5, 1, 1)),
     "character of p = 5 at p = 3"),
    ("ramified-unramified-char", DomainError,
     lambda: padic_zeta.local_factor_ramified(1, 0, 5, padic_core.UnitCharacter(5, 0)),
     "use local_factor_unramified"),
    ("gauss-sum-unramified", DomainError,
     lambda: padic_zeta.rho0_gauss_sum(padic_core.UnitCharacter(5, 0)),
     "needs a ramified character"),
    ("vector-empty", DegenerateError,
     lambda: padic_zeta.padic_vector_factor((), 5), "empty configuration"),
    ("global-spec-composite", DomainError,
     lambda: GlobalSpec(arch=Real(1.0, 0.0), finite=((2, 1, 0), (9, 1, 0))),
     "must be a prime"),
    ("global-spec-zero-a", DomainError,
     lambda: GlobalSpec(arch=Real(1.0, 0.0), finite=((2, 0, 0),)), "vanishes at p = 2"),
    ("global-spec-inf-a", DomainError,
     lambda: GlobalSpec(arch=Real(1.0, 0.0), finite=((2, _INF, 0),)), "are rationals"),
    ("global-spec-nan-a", DomainError,
     lambda: GlobalSpec(arch=Real(1.0, 0.0), finite=((2, _NAN, 0),)), "are rationals"),
    ("global-spec-nan-b", DomainError,
     lambda: GlobalSpec(arch=Real(1.0, 0.0), finite=((2, 1, _NAN),)), "are rationals"),
    # Dirichlet characters
    ("dirichlet-modulus", DomainError,
     lambda: specfun.DirichletCharacter(1001, (1,)), "outside supported range"),
    ("dirichlet-index-length", DomainError,
     lambda: specfun.DirichletCharacter(5, (1, 2)), "index length"),
    # winding
    ("half-turn", NonIntegerWindingError,
     lambda: zero_engine._integer_winding(math.pi), "is not an integer"),
    # JobConfig
    ("config-format", ConfigError,
     _config(command="local", format="xml"), "unknown format"),
    ("config-field", ConfigError,
     _config(command="local", field="fp"), "unknown field kind"),
    ("config-spec", ConfigError,
     _config(command="global", spec="other"), "unknown named spec"),
    ("config-real-char", ConfigError,
     _config(command="local", field="real", char="odd"), "trivial or sign"),
    ("config-no-s", ConfigError,
     _config(command="local", field="real", s=[]), "at least one --s point"),
    ("config-local-field", ConfigError,
     _config(command="local", s=["2"]), "--field qp or --field real"),
    ("config-zeros-target", ConfigError,
     _config(command="zeros", im_hi=10), "exactly one of"),
    ("config-zeros-imax", ConfigError,
     _config(command="zeros", spec="reference"), "needs --imax"),
    ("config-zeros-samples", ConfigError,
     _config(command="zeros", spec="reference", im_hi=10, samples=8), "at least 16 samples"),
]


@pytest.mark.parametrize("error, call, fragment", [row[1:] for row in _TABLE],
                         ids=[row[0] for row in _TABLE])
def test_input_is_refused(error, call, fragment):
    with pytest.raises(error, match=fragment):
        call()

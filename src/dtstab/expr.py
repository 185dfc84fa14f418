"""Scalar arithmetic expressions over (t, x, d, u) and named auxiliaries.

This is the textual language used to define system dynamics, output maps,
Lyapunov candidates and reconstruction maps.  Grammar (lowest to highest
precedence)::

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' unary)?          # right-associative
    primary := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Variables are ``t``, ``x1..xn``, ``d1..dm``, ``u1..uk`` (1-based indices,
validated against the declared dimensions) plus any auxiliary names declared
in :class:`Dims` (e.g. ``y0``, ``y1``, ``u0`` for reconstruction maps).
``e`` and ``pi`` are named constants, folded to literals at parse time.
Functions: exp, log, abs, sqrt, sign, min, max, pow, and the variadic
``norm(a1, ..., an)`` (n >= 1), the Euclidean norm of its arguments.

Conventions: ``0^0`` evaluates to 1; ``a^b`` with a < 0 and non-integer b,
``log``/``sqrt`` of a negative number and division by zero are domain errors
reported with the offending subexpression.  A literal exponent 2 or 0.5
(``a^2``, ``pow(a, 0.5)``) is ``a*a`` or ``sqrt(abs(a))``, correctly rounded
where ``math.pow`` is not, with ``math.pow``'s answers where IEEE 754 does
not decide: a negative base with 0.5 is a domain error, ``(-0.0)^0.5`` is
0.0 and ``(-inf)^0.5`` is inf.  Evaluation is pure and deterministic; ASTs
are immutable and safe to share.

Each node generates one Python source, compiled at most once per process
against one namespace, keyed by source (:meth:`Expr.compiled`); the one
code object evaluates a single point and a slab of points.  The key is the
source, not the AST: ``Num(0.0) == Num(-0.0)``, yet ``-0.0*x1`` and
``0.0*x1`` differ.  At a point, a component is read as a Python float and
every operation runs its guarded scalar kernel.  Over a slab, the
operations IEEE 754 rounds exactly (``+ - * /``, ``sqrt``, ``abs``,
negation, so also ``a^2`` and ``a^0.5``) run in numpy, ``min``/``max``/
``sign`` keep Python's comparison semantics and the other ``^``, ``exp``
and ``log`` map element by element: ``math.pow``, ``math.exp`` and
``math.log`` first, the guarded scalar kernels again over the whole slab
when some point raises.  So every value equals the point result bit for
bit; ``norm`` is :func:`vecnorm` of its arguments at one point and
:func:`row_norms` of the stacked columns over a slab.  The one exception
is the sign of a NaN, which IEEE 754 leaves unspecified: NaNs appear at
the same points, but their sign bit may differ.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Dims", "Env", "Expr", "Num", "Var", "Neg", "Bin", "Call",
    "parse_expression", "eval_expression", "substitute",
    "ExprError", "ExprSyntaxError", "ExprNameError", "ExprDomainError",
]


class ExprError(Exception):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message, pos):
        self.pos = pos + 1  # 1-based in messages and in .pos
        super().__init__(f"{message} (at position {self.pos})")


class ExprNameError(ExprError):
    """Unknown identifier or variable index outside the declared dimensions."""

    def __init__(self, message, pos):
        self.pos = pos + 1
        super().__init__(f"{message} (at position {self.pos})")


class ExprDomainError(ExprError):
    """Numeric domain violation, reported with the offending subexpression."""

    def __init__(self, message, node=None):
        if node is not None:
            message = f"{message} in subexpression '{node.to_string()}'"
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class Dims:
    """Dimension declaration an expression is validated against."""

    n: int = 0
    m: int = 0
    k: int = 0
    aux: frozenset[str] = frozenset()

    def __post_init__(self):
        if min(self.n, self.m, self.k) < 0:
            raise ValueError("dimensions must be non-negative")
        if "t" in self.aux:
            raise ValueError("'t' is reserved and cannot be an auxiliary name")
        object.__setattr__(self, "aux", frozenset(self.aux))


@dataclass(frozen=True)
class Env:
    """Evaluation environment.  Arrays are frozen; evaluation never mutates it."""

    t: float = 0.0
    x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    d: np.ndarray = field(default_factory=lambda: np.zeros(0))
    u: np.ndarray = field(default_factory=lambda: np.zeros(0))
    aux: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("x", "d", "u"):
            arr = np.array(getattr(self, name), dtype=float, copy=True).reshape(-1)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "aux", MappingProxyType(dict(self.aux)))


# --- guarded numeric kernel, shared by the tree walker and compiled code ---

def _pow(a, b):
    if a == 0.0 and b == 0.0:
        return 1.0  # documented convention
    try:
        return math.pow(a, b)
    except ValueError:
        if a == 0.0 and b < 0.0:
            raise ExprDomainError("zero raised to a negative power") from None
        raise ExprDomainError("negative base with non-integer exponent") from None
    except OverflowError:
        neg = a < 0.0 and float(b).is_integer() and int(b) % 2 == 1
        return -math.inf if neg else math.inf


def _square(a):
    return a * a  # correctly rounded, an overflow is inf; serves columns too


def _root(a):
    # sqrt is correctly rounded; _pow(a, 0.5)'s answers where IEEE does not
    # decide: a negative base raises, (-0.0)^0.5 = 0.0 and (-inf)^0.5 = inf
    if a < 0.0 and a != -math.inf:
        raise ExprDomainError("negative base with non-integer exponent")
    return math.sqrt(abs(a))


# A literal exponent 2 or 0.5 runs as x*x or sqrt in every evaluator, in place
# of math.pow, which libm does not round correctly.  Other exponents keep
# _pow: x*x*x rounds twice.
_EXACT_POWERS = {2.0: _square, 0.5: _root}


def _exact_power(exponent):
    """The exact kernel of a literal exponent, or None."""
    return _EXACT_POWERS.get(exponent.value) if isinstance(exponent, Num) else None


def _div(a, b):
    if b == 0.0:
        raise ExprDomainError("division by zero")
    return a / b


def _exp(a):
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _log(a):
    if a <= 0.0:
        raise ExprDomainError("log of a non-positive number")
    return math.log(a)


def _sqrt(a):
    if a < 0.0:
        raise ExprDomainError("sqrt of a negative number")
    return math.sqrt(a)


def _sign(a):
    if a > 0.0:
        return 1.0
    if a < 0.0:
        return -1.0
    return 0.0


def vecnorm(v) -> float:
    """Euclidean norm with an exact fast path for scalars.

    ``np.linalg.norm`` of a vector is ``sqrt(x.dot(x))`` on the flattened
    array; this runs the same dot kernel without its call overhead.  The
    flattened array is contiguous: a strided dot sums in another order.  A
    dot past the float range is inf, without a warning.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] == 1:
        return abs(float(v[0]))
    with np.errstate(over="ignore"):  # the dot may overflow to inf
        return math.sqrt(v.dot(v))


def row_norms(rows) -> np.ndarray:
    """:func:`vecnorm` of every row of an array, bit for bit: the norms over
    the last axis, shaped by the others.

    ``np.linalg.norm`` of a vector is ``sqrt(x.dot(x))``; ``np.vecdot`` runs
    the same dot kernel on each contiguous row (``np.linalg.norm(axis=1)``
    sums differently and does not match).  A dot past the float range is
    inf, without a warning.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.shape[-1] == 1:
        return np.abs(rows[..., 0])
    with np.errstate(over="ignore"):  # a row's dot may overflow to inf
        return np.sqrt(np.vecdot(rows, rows))


def _norm(*args):
    return vecnorm(args)


# name -> (arity, scalar kernel); arity None takes one or more arguments
_FUNCTIONS: dict[str, tuple[int | None, Callable]] = {
    "exp": (1, _exp),
    "log": (1, _log),
    "abs": (1, abs),
    "sqrt": (1, _sqrt),
    "sign": (1, _sign),
    "min": (2, min),
    "max": (2, max),
    "pow": (2, _pow),
    "norm": (None, _norm),
}

_CONSTANTS = {"e": math.e, "pi": math.pi}

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


class Expr:
    """Abstract syntax tree node.  Subclasses are frozen dataclasses."""

    _prec = _PREC_ATOM

    def to_string(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.to_string()

    def compiled(self) -> Callable:
        """Compiled evaluator ``fn(t, x, d, u, aux)`` at one point or over a
        slab of points.

        At a point (float ``t``, float vectors and auxiliaries) it returns a
        float bit-identical to :func:`eval_expression` (same guarded kernel)
        and warns of nothing; its domain errors do not name the offending
        subexpression.  Over a slab, ``x``, ``d`` and ``u`` are indexed by
        component, so ``x[i]`` is the column of ``x_{i+1}`` (pass the ``(N,
        n)`` row array transposed); ``t`` and the auxiliaries are floats or
        columns.  Columns of shapes that broadcast together, such as (R, 1)
        and (1, K), give the broadcast shape, and each operation runs at its
        operands' own shape.  It returns a column, or a float when the value
        does not depend on the slab, equal to the point calls bit for bit
        (NaN signs aside, see the module docstring), and raises
        :class:`ExprDomainError` iff some point would.  A slab runs under
        the caller's numpy error state: enter ``np.errstate(all="ignore")``
        around the call for IEEE results without warnings.
        """
        fn = getattr(self, "_compiled", None)
        if fn is None:
            fn = _code(self._codegen())
            object.__setattr__(self, "_compiled", fn)
        return fn

    def children(self) -> tuple:
        return ()

    def _rebuild(self, children) -> "Expr":
        return self

    def variables(self) -> frozenset:
        """Names of the variables and auxiliaries the expression reads."""
        return frozenset().union(*(c.variables() for c in self.children()))

    def _codegen(self) -> str:
        raise NotImplementedError

    def _wrap(self, child: "Expr", min_prec: int) -> str:
        s = child.to_string()
        return f"({s})" if child._prec < min_prec else s


@dataclass(frozen=True, eq=True)
class Num(Expr):
    value: float

    _prec = _PREC_ATOM

    def to_string(self):
        return repr(self.value)

    def _codegen(self):
        return repr(self.value)


@dataclass(frozen=True, eq=True)
class Var(Expr):
    name: str

    _prec = _PREC_ATOM

    def to_string(self):
        return self.name

    def variables(self):
        return frozenset((self.name,))

    def _codegen(self):
        name = self.name
        if name == "t":
            return "t"
        if name[0] in "xdu" and name[1:].isdigit() and int(name[1:]) >= 1:
            # aux declarations shadow indexed names (as in the evaluator)
            return (f"(aux[{name!r}] if {name!r} in aux"
                    f" else _read({name[0]}[{int(name[1:]) - 1}]))")
        return f"aux[{name!r}]"


@dataclass(frozen=True, eq=True)
class Neg(Expr):
    operand: Expr

    _prec = _PREC_NEG

    def to_string(self):
        return "-" + self._wrap(self.operand, _PREC_NEG)

    def children(self):
        return (self.operand,)

    def _rebuild(self, children):
        return Neg(*children)

    def _codegen(self):
        return f"(-({self.operand._codegen()}))"


@dataclass(frozen=True, eq=True)
class Bin(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr

    @property
    def _prec(self):
        return _PREC_POW if self.op == "^" else (_PREC_ADD if self.op in "+-" else _PREC_MUL)

    def to_string(self):
        if self.op == "^":
            # left operand must be a primary; right accepts unary (so ^ chains right)
            lhs = self._wrap(self.left, _PREC_ATOM)
            rhs = self._wrap(self.right, _PREC_NEG)
            return f"{lhs}^{rhs}"
        p = self._prec
        lhs = self._wrap(self.left, p)
        rhs = self._wrap(self.right, p + 1)  # left-associative
        return f"{lhs} {self.op} {rhs}" if self.op in "+-" else f"{lhs}{self.op}{rhs}"

    def children(self):
        return (self.left, self.right)

    def _rebuild(self, children):
        return Bin(self.op, *children)

    def _codegen(self):
        if self.op == "^":
            return _power_code("_pow", self.left, self.right)
        a, b = self.left._codegen(), self.right._codegen()
        if self.op == "/":
            return f"_div({a}, {b})"
        return f"({a} {self.op} {b})"


@dataclass(frozen=True, eq=True)
class Call(Expr):
    fn: str
    args: tuple[Expr, ...]

    _prec = _PREC_ATOM

    def to_string(self):
        return f"{self.fn}({', '.join(a.to_string() for a in self.args)})"

    def children(self):
        return self.args

    def _rebuild(self, children):
        return Call(self.fn, tuple(children))

    def _codegen(self):
        if self.fn == "pow":
            return _power_code("_fn_pow", *self.args)
        args = ", ".join(a._codegen() for a in self.args)
        return f"_fn_{self.fn}({args})"


def _power_code(kernel, base, exponent):
    exact = _exact_power(exponent)
    if exact:
        return f"{exact.__name__}({base._codegen()})"
    return f"{kernel}({base._codegen()}, {exponent._codegen()})"


# --- the namespace: each kernel takes a point's floats or a slab's columns ---

# A slab's columns are exactly this class; each kernel tests its operands
# for it inline, so a point's call costs one frame over its scalar kernel.
_ndarray = np.ndarray


def _read(v):
    # a slab's column passes through; a point's component becomes a Python
    # float: numpy scalar arithmetic gives the same IEEE values but warns on
    # overflow and on inf * 0
    return v if type(v) is _ndarray else float(v)


def _has_array(*args):
    return _ndarray in map(type, args)


def _elementwise(kernel, fast, *args):
    """Apply a scalar kernel to a slab point by point.

    ``fast`` is the ``math`` function the kernel guards, which equals it
    wherever it returns: it is mapped first, in C.  When some point raises
    (a domain error or an overflow), the kernel maps every point again in
    row order, so the values and the first error are the kernel's.  Arrays
    of one shape pair up as they are, a scalar operand is repeated as it
    is; only arrays of different shapes are broadcast.
    """
    arrays = [a for a in args if type(a) is _ndarray]
    shape = arrays[0].shape
    if all(a.shape == shape for a in arrays):
        lists = [a.ravel().tolist() if type(a) is _ndarray
                 else itertools.repeat(a) for a in args]
    else:
        cols = np.broadcast_arrays(*args)
        shape = cols[0].shape
        lists = [c.ravel().tolist() for c in cols]
    size = math.prod(shape)
    try:
        values = np.fromiter(map(fast, *lists), float, count=size)
    except (ValueError, OverflowError):
        values = np.fromiter(map(kernel, *lists), float, count=size)
    return values.reshape(shape)


def _array_pow(a, b):
    if type(a) is not _ndarray and type(b) is not _ndarray:
        return _pow(a, b)
    return _elementwise(_pow, math.pow, a, b)


def _array_exp(a):
    return _elementwise(_exp, math.exp, a) if type(a) is _ndarray else _exp(a)


def _array_log(a):
    return _elementwise(_log, math.log, a) if type(a) is _ndarray else _log(a)


def _array_div(a, b):
    if type(a) is not _ndarray and type(b) is not _ndarray:
        return _div(a, b)
    # a zero of either sign is the only falsy float; NaN is truthy
    if (not b.all()) if type(b) is _ndarray else b == 0.0:
        raise ExprDomainError("division by zero")
    return np.true_divide(a, b)


def _array_root(a):
    if type(a) is not _ndarray:
        return _root(a)
    # the least value but NaN (0.0 if none): one reduction when no base is
    # negative
    if (np.fmin.reduce(a, axis=None, initial=0.0) < 0.0
            and np.any(a[a < 0.0] != -math.inf)):
        raise ExprDomainError("negative base with non-integer exponent")
    return np.sqrt(np.abs(a))


def _array_sqrt(a):
    if type(a) is not _ndarray:
        return _sqrt(a)
    # the least value but NaN (0.0 if none): one reduction
    if np.fmin.reduce(a, axis=None, initial=0.0) < 0.0:
        raise ExprDomainError("sqrt of a negative number")
    return np.sqrt(a)


def _array_min(a, b):
    if type(a) is not _ndarray and type(b) is not _ndarray:
        return min(a, b)
    # min(a, b) keeps a unless b < a: NaN and signed-zero ties as in Python
    return np.where(b < a, b, a)


def _array_max(a, b):
    if type(a) is not _ndarray and type(b) is not _ndarray:
        return max(a, b)
    return np.where(b > a, b, a)


def _array_sign(a):
    if type(a) is not _ndarray:
        return _sign(a)
    return np.where(a > 0.0, 1.0, np.where(a < 0.0, -1.0, 0.0))


def _array_norm(*args):
    if not _has_array(*args):
        return _norm(*args)
    cols = np.broadcast_arrays(*args)  # one point a row of the stack, any shape
    stacked = np.stack(cols, axis=-1).reshape(-1, len(args))
    return row_norms(stacked).reshape(cols[0].shape)


_NAMESPACE = {
    "__builtins__": {},
    "_read": _read,
    "_pow": _array_pow,
    "_square": _square,
    "_root": _array_root,
    "_div": _array_div,
    "_fn_exp": _array_exp,
    "_fn_log": _array_log,
    "_fn_abs": abs,
    "_fn_sqrt": _array_sqrt,
    "_fn_sign": _array_sign,
    "_fn_min": _array_min,
    "_fn_max": _array_max,
    "_fn_pow": _array_pow,
    "_fn_norm": _array_norm,
}


# --- one code object per distinct source, per process ---

# Distinct sources a process keeps code for; a node keeps its own code past
# eviction, so the bound only limits sharing.
_CODE_CACHE_SIZE = 1024


def _compile(source):
    """``lambda t, x, d, u, aux: <source>`` with :data:`_NAMESPACE` as its
    globals (itself, so a patched kernel is seen at call time)."""
    return eval("lambda t, x, d, u, aux: " + source,
                _NAMESPACE)  # the namespace is module-controlled


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source):
    return _compile(source)


def _columns_code(exprs):
    """``fn(t, x, d, u, aux)`` -> the tuple of every expression's value (see
    :meth:`Expr.compiled`), left to right: one code object for a whole map,
    from the same cache."""
    return _code("(" + "".join(f"{e._codegen()}, " for e in exprs) + ")")


# --- tokenizer ---

_NUM_START = set("0123456789.")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        if c in _NUM_START:
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"malformed number '{lit}'", i) from None
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number literal '{lit}' out of range", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character '{c}'", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, dims: Dims):
        self.text = text
        self.dims = dims
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected '{kind}', found '{tok[1]}'", tok[2])
        return tok

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected '{tok[1]}'", tok[2])
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek()[0] in "*/":
            op = self.advance()[0]
            node = Bin(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.primary()
        if self.peek()[0] == "^":
            self.advance()
            node = Bin("^", node, self.unary())
        return node

    def primary(self) -> Expr:
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            return Num(value)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            if self.peek()[0] == "(":
                return self.call(value, pos)
            return self.variable(value, pos)
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", pos)
        raise ExprSyntaxError(f"unexpected '{value}'", pos)

    def call(self, name, pos) -> Expr:
        if name not in _FUNCTIONS:
            raise ExprNameError(f"unknown function '{name}'", pos)
        arity = _FUNCTIONS[name][0]
        self.expect("(")
        args = [self.expr()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        if arity is not None and len(args) != arity:
            raise ExprSyntaxError(
                f"function '{name}' takes {arity} argument(s), got {len(args)}", pos)
        return Call(name, tuple(args))

    def variable(self, name, pos) -> Expr:
        dims = self.dims
        if name in dims.aux:
            return Var(name)
        if name in _CONSTANTS:
            return Num(_CONSTANTS[name])
        if name == "t":
            return Var(name)
        if name[0] in "xdu" and name[1:].isdigit():
            idx = int(name[1:])
            bound = {"x": dims.n, "d": dims.m, "u": dims.k}[name[0]]
            if 1 <= idx <= bound:
                return Var(name)
            raise ExprNameError(
                f"variable '{name}' index out of declared range (1..{bound})", pos)
        raise ExprNameError(f"unknown identifier '{name}'", pos)


def parse_expression(text: str, dims: Dims = Dims()) -> Expr:
    """Parse ``text`` into an AST, validating variables against ``dims``."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, dims).parse()


def eval_expression(expr: Expr, env: Env) -> float:
    """Evaluate ``expr`` in ``env`` (IEEE double, deterministic, pure)."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        name = expr.name
        if name == "t":
            return env.t
        if name in env.aux:
            return env.aux[name]
        vec = {"x": env.x, "d": env.d, "u": env.u}[name[0]]
        idx = int(name[1:]) - 1
        if idx >= vec.shape[0]:
            raise ExprError(
                f"variable '{name}' outside environment dimensions ({vec.shape[0]})")
        return float(vec[idx])  # as compiled code reads it
    if isinstance(expr, Neg):
        return -eval_expression(expr.operand, env)
    if isinstance(expr, Bin):
        a = eval_expression(expr.left, env)
        b = eval_expression(expr.right, env)
        try:
            if expr.op == "+":
                return a + b
            if expr.op == "-":
                return a - b
            if expr.op == "*":
                return a * b
            if expr.op == "/":
                return _div(a, b)
            exact = _exact_power(expr.right)
            return exact(a) if exact else _pow(a, b)
        except ExprDomainError as ex:
            raise ExprDomainError(str(ex).split(" in subexpression")[0], expr) from None
    if isinstance(expr, Call):
        args = [eval_expression(a, env) for a in expr.args]
        exact = expr.fn == "pow" and _exact_power(expr.args[1])
        try:
            return exact(args[0]) if exact else _FUNCTIONS[expr.fn][1](*args)
        except ExprDomainError as ex:
            raise ExprDomainError(str(ex).split(" in subexpression")[0], expr) from None
    raise TypeError(f"not an Expr node: {expr!r}")


def substitute(expr: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """``expr`` with every variable named in ``bindings`` replaced by its AST.

    Evaluating the result equals evaluating ``expr`` with those variables set
    to the values of their bindings, bit for bit: the same operations run on
    the same operands.  A node none of whose children changed is returned
    itself, so it keeps its compiled code.
    """
    if isinstance(expr, Var):
        return bindings.get(expr.name, expr)
    kids = expr.children()
    new = tuple(substitute(c, bindings) for c in kids)
    if all(a is b for a, b in zip(new, kids)):
        return expr
    return expr._rebuild(new)


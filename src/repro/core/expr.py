"""Predicate/expression AST with consistent multi-backend evaluation.

One AST drives everything the paper's pruning stack needs:

* :func:`bounds`      — derived min/max interval of a value expression from
  partition metadata (§3.1 "Deriving Min/Max Ranges");
* :func:`eval3`       — tri-state partition evaluation returning the set of
  *possible per-row outcomes* ``⊆ {'T','F','N'}``; a partition is prunable
  iff ``'T'`` is impossible (no false negatives), and **fully-matching**
  (§4.2) iff the set is exactly ``{'T'}``;
* :func:`to_spark`    — compile to a PySpark ``Column`` for execution;
* :func:`to_sql`      — compile to SQL text (DuckDB oracle, workload
  classifier);
* :func:`to_pandas_mask` — evaluate on a pandas frame with SQL
  three-valued-logic semantics (the simulated warehouse worker).

Keeping all backends on one AST lets tests assert they agree row-for-row,
so a pruning decision proven sound against ``eval3`` is sound for the
plan Spark actually executes.
"""
from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass, field
from typing import Any, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np
import pandas as pd

from . import intervals as iv
from .intervals import TOP, Interval
from .stats import PartitionStats, Value

# --------------------------------------------------------------------------
# Tri-state outcome sets
# --------------------------------------------------------------------------

#: Possible per-row outcomes of a predicate on a partition.
Outcomes = FrozenSet[str]

T_ONLY: Outcomes = frozenset("T")
F_ONLY: Outcomes = frozenset("F")
N_ONLY: Outcomes = frozenset("N")
TF: Outcomes = frozenset("TF")
TFN: Outcomes = frozenset("TFN")


def can_match(s: Outcomes) -> bool:
    """May some row satisfy the predicate? (False ⇒ prune, §3)"""
    return "T" in s


def always_match(s: Outcomes) -> bool:
    """Does *every* row satisfy the predicate? (fully-matching, §4.2)"""
    return s == T_ONLY


def _not3(x: str) -> str:
    return {"T": "F", "F": "T", "N": "N"}[x]


def _and3(x: str, y: str) -> str:
    if x == "F" or y == "F":
        return "F"
    if x == "N" or y == "N":
        return "N"
    return "T"


def _or3(x: str, y: str) -> str:
    if x == "T" or y == "T":
        return "T"
    if x == "N" or y == "N":
        return "N"
    return "F"


# --------------------------------------------------------------------------
# AST nodes
# --------------------------------------------------------------------------


class Expr:
    """Base class; operator overloads build predicate trees ergonomically."""

    # -- value operators ---------------------------------------------------
    def __add__(self, other: Any) -> "Arith":
        return Arith("+", self, _wrap(other))

    def __sub__(self, other: Any) -> "Arith":
        return Arith("-", self, _wrap(other))

    def __mul__(self, other: Any) -> "Arith":
        return Arith("*", self, _wrap(other))

    def __truediv__(self, other: Any) -> "Arith":
        return Arith("/", self, _wrap(other))

    def __rmul__(self, other: Any) -> "Arith":
        return Arith("*", _wrap(other), self)

    def __radd__(self, other: Any) -> "Arith":
        return Arith("+", _wrap(other), self)

    # -- comparison operators ---------------------------------------------
    def __lt__(self, other: Any) -> "Cmp":
        return Cmp("<", self, _wrap(other))

    def __le__(self, other: Any) -> "Cmp":
        return Cmp("<=", self, _wrap(other))

    def __gt__(self, other: Any) -> "Cmp":
        return Cmp(">", self, _wrap(other))

    def __ge__(self, other: Any) -> "Cmp":
        return Cmp(">=", self, _wrap(other))

    def eq(self, other: Any) -> "Cmp":
        return Cmp("=", self, _wrap(other))

    def ne(self, other: Any) -> "Cmp":
        return Cmp("!=", self, _wrap(other))


@dataclass(frozen=True)
class Col(Expr):
    """Reference to a base-table column."""

    name: str


@dataclass(frozen=True)
class Lit(Expr):
    """Literal scalar; ``None`` is SQL NULL."""

    value: Optional[Value]


@dataclass(frozen=True)
class Arith(Expr):
    """Binary arithmetic over value expressions (+ − × ÷)."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Cmp(Expr):
    """Comparison predicate: ``< <= > >= = !=``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class And(Expr):
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Or(Expr):
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr


@dataclass(frozen=True)
class If(Expr):
    """``IF(cond, then, otherwise)`` — a value expression (§3.1 example).

    SQL semantics: a NULL condition takes the ELSE branch.
    """

    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass(frozen=True)
class Like(Expr):
    """SQL ``LIKE`` with ``%``/``_`` wildcards over a string expression."""

    arg: Expr
    pattern: str


@dataclass(frozen=True)
class StartsWith(Expr):
    """``STARTSWITH(arg, prefix)`` — target of the imprecise LIKE rewrite."""

    arg: Expr
    prefix: str


@dataclass(frozen=True)
class InList(Expr):
    arg: Expr
    values: Tuple[Value, ...]


@dataclass(frozen=True)
class IsNull(Expr):
    arg: Expr


# -- constructor helpers ----------------------------------------------------


def _wrap(v: Any) -> Expr:
    return v if isinstance(v, Expr) else Lit(v)


def col(name: str) -> Col:
    return Col(name)


def lit(v: Optional[Value]) -> Lit:
    return Lit(v)


def and_(*args: Expr) -> Expr:
    flat: List[Expr] = []
    for a in args:
        flat.extend(a.args) if isinstance(a, And) else flat.append(a)
    return flat[0] if len(flat) == 1 else And(tuple(flat))


def or_(*args: Expr) -> Expr:
    flat: List[Expr] = []
    for a in args:
        flat.extend(a.args) if isinstance(a, Or) else flat.append(a)
    return flat[0] if len(flat) == 1 else Or(tuple(flat))


def not_(arg: Expr) -> Not:
    return Not(arg)


def if_(cond: Expr, then: Any, otherwise: Any) -> If:
    return If(cond, _wrap(then), _wrap(otherwise))


def like(arg: Expr, pattern: str) -> Like:
    return Like(arg, pattern)


def startswith(arg: Expr, prefix: str) -> StartsWith:
    return StartsWith(arg, prefix)


def isin(arg: Expr, values: Sequence[Value]) -> InList:
    return InList(arg, tuple(values))


def isnull(arg: Expr) -> IsNull:
    return IsNull(arg)


def between(arg: Expr, lo: Any, hi: Any) -> Expr:
    return and_(Cmp(">=", arg, _wrap(lo)), Cmp("<=", arg, _wrap(hi)))


# --------------------------------------------------------------------------
# Column extraction
# --------------------------------------------------------------------------


def columns(e: Expr) -> Set[str]:
    """All base-table columns referenced by ``e``."""
    out: Set[str] = set()

    def walk(x: Expr) -> None:
        if isinstance(x, Col):
            out.add(x.name)
        elif isinstance(x, (Arith, Cmp)):
            walk(x.left), walk(x.right)
        elif isinstance(x, (And, Or)):
            for a in x.args:
                walk(a)
        elif isinstance(x, Not):
            walk(x.arg)
        elif isinstance(x, If):
            walk(x.cond), walk(x.then), walk(x.otherwise)
        elif isinstance(x, (Like, StartsWith, InList, IsNull)):
            walk(x.arg)

    walk(e)
    return out


# --------------------------------------------------------------------------
# Backend 1 — interval bounds of value expressions (§3.1)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VBounds:
    """Value-expression bounds: interval over non-null outcomes + null info."""

    interval: Interval
    may_null: bool
    all_null: bool = False


def bounds(e: Expr, stats: PartitionStats) -> VBounds:
    """Derive the min/max range of value expression ``e`` on a partition.

    Sound over-approximation: every non-null value the expression can take
    on any row of the partition lies within the returned interval.
    Unknown columns or non-comparable mixtures degrade to :data:`TOP`.
    """
    if isinstance(e, Col):
        cs = stats.col(e.name)
        if cs is None:
            return VBounds(TOP, may_null=True)
        if cs.all_null:
            return VBounds(TOP, may_null=True, all_null=stats.row_count > 0)
        return VBounds(Interval(cs.min, cs.max), may_null=cs.has_nulls())
    if isinstance(e, Lit):
        if e.value is None:
            return VBounds(TOP, may_null=True, all_null=True)
        return VBounds(iv.point(e.value), may_null=False)
    if isinstance(e, Arith):
        lb, rb = bounds(e.left, stats), bounds(e.right, stats)
        op = {"+": iv.add, "-": iv.sub, "*": iv.mul, "/": iv.div}[e.op]
        try:
            out = op(lb.interval, rb.interval)
        except (TypeError, ValueError):
            out = TOP
        return VBounds(
            out,
            may_null=lb.may_null or rb.may_null,
            all_null=lb.all_null or rb.all_null,
        )
    if isinstance(e, If):
        c = eval3(e.cond, stats)
        branches: List[VBounds] = []
        if "T" in c:
            branches.append(bounds(e.then, stats))
        if "F" in c or "N" in c:  # SQL: NULL condition takes ELSE
            branches.append(bounds(e.otherwise, stats))
        if not branches:  # empty partition
            return VBounds(TOP, may_null=True)
        try:
            hull = iv.hull(b.interval for b in branches)
        except (TypeError, ValueError):
            hull = TOP
        return VBounds(
            hull,
            may_null=any(b.may_null for b in branches),
            all_null=all(b.all_null for b in branches),
        )
    raise TypeError(f"not a value expression: {e!r}")


# --------------------------------------------------------------------------
# Backend 2 — tri-state partition evaluation
# --------------------------------------------------------------------------


def _cmp_outcomes(op: str, l: Interval, r: Interval) -> Set[str]:
    """Possible {T,F} outcomes of ``l op r`` over rows with non-null sides.

    T-impossibility and F-impossibility claims rely only on the interval
    containment guarantee, hence are sound; T/F-possibility may be a
    false positive (over-approximation), which is safe for pruning.
    """
    out: Set[str] = set()
    if op == "<":
        if not r.entirely_le(l):  # some x < some y possible
            out.add("T")
        if not l.entirely_lt(r):  # some x >= some y possible
            out.add("F")
    elif op == "<=":
        if not r.entirely_lt(l):
            out.add("T")
        if not l.entirely_le(r):
            out.add("F")
    elif op == ">":
        return {_not3(x) for x in _cmp_outcomes("<=", l, r)}
    elif op == ">=":
        return {_not3(x) for x in _cmp_outcomes("<", l, r)}
    elif op == "=":
        if l.overlaps(r):
            out.add("T")
        if not (l.is_point and r.is_point and l.lo == r.lo):
            out.add("F")
    elif op == "!=":
        return {_not3(x) for x in _cmp_outcomes("=", l, r)}
    else:
        raise ValueError(f"unknown comparison {op}")
    return out


_WILDCARDS = ("%", "_")


def like_prefix(pattern: str) -> Tuple[str, bool]:
    """Literal prefix of a LIKE pattern and whether it is a *pure* prefix
    pattern (``'abc%'`` — exactly one trailing ``%``, no other wildcards).

    The widening step of the paper's imprecise filter rewrite: any pattern
    with a literal prefix is relaxed to ``STARTSWITH(prefix)`` for pruning.
    Backslash escapes are honoured.
    """
    prefix_chars: List[str] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\" and i + 1 < len(pattern):
            prefix_chars.append(pattern[i + 1])
            i += 2
            continue
        if ch in _WILDCARDS:
            break
        prefix_chars.append(ch)
        i += 1
    prefix = "".join(prefix_chars)
    pure = i == len(pattern) - 1 and pattern[i:] == "%"
    return prefix, pure


def eval3(e: Expr, stats: PartitionStats) -> Outcomes:
    """Set of possible per-row outcomes of predicate ``e`` on a partition.

    Guarantee (the soundness invariant all pruning rests on): the returned
    set is a superset of ``{outcome(e, row) for row in partition}``.
    """
    if isinstance(e, Cmp):
        try:
            lb, rb = bounds(e.left, stats), bounds(e.right, stats)
        except TypeError:
            return TFN
        if lb.all_null or rb.all_null:
            return N_ONLY if stats.row_count > 0 else frozenset()
        try:
            out = _cmp_outcomes(e.op, lb.interval, rb.interval)
        except TypeError:  # non-comparable types in metadata: cannot prune
            return TFN
        if lb.may_null or rb.may_null:
            out = out | {"N"}
        return frozenset(out)

    if isinstance(e, And):
        sets = [eval3(a, stats) for a in e.args]
        out = sets[0]
        for s in sets[1:]:
            out = frozenset(_and3(x, y) for x in out for y in s)
        return out

    if isinstance(e, Or):
        sets = [eval3(a, stats) for a in e.args]
        out = sets[0]
        for s in sets[1:]:
            out = frozenset(_or3(x, y) for x in out for y in s)
        return out

    if isinstance(e, Not):
        return frozenset(_not3(x) for x in eval3(e.arg, stats))

    if isinstance(e, (Like, StartsWith)):
        b = bounds(e.arg, stats)
        if b.all_null:
            return N_ONLY
        if isinstance(e, Like):
            prefix, pure = like_prefix(e.pattern)
            if not any(
                c in e.pattern.replace("\\%", "").replace("\\_", "")
                for c in _WILDCARDS
            ):
                # No wildcards at all: LIKE degenerates to equality.
                return eval3(Cmp("=", e.arg, Lit(e.pattern.replace("\\", ""))), stats)
        else:
            prefix, pure = e.prefix, True
        out: Set[str] = set()
        try:
            if prefix == "" or iv.prefix_overlap(b.interval, prefix):
                out.add("T")
            if pure:
                if not iv.prefix_covers(b.interval, prefix):
                    out.add("F")
            else:
                # Widened (imprecise) rewrite: match never guaranteed.
                out.add("F")
        except TypeError:
            out = {"T", "F"}
        if b.may_null:
            out.add("N")
        return frozenset(out)

    if isinstance(e, InList):
        b = bounds(e.arg, stats)
        if b.all_null:
            return N_ONLY
        out = set()
        try:
            if any(b.interval.contains(v) for v in e.values):
                out.add("T")
            if not (
                b.interval.is_point and any(b.interval.lo == v for v in e.values)
            ):
                out.add("F")
        except TypeError:
            out = {"T", "F"}
        if b.may_null:
            out.add("N")
        return frozenset(out)

    if isinstance(e, IsNull):
        b = bounds(e.arg, stats)
        out = set()
        if b.may_null:
            out.add("T")
        if not b.all_null:
            out.add("F")
        return frozenset(out)

    if isinstance(e, Lit):  # boolean literal predicates (WHERE true)
        if e.value is None:
            return N_ONLY
        return T_ONLY if e.value else F_ONLY

    raise TypeError(f"not a predicate: {e!r}")


# --------------------------------------------------------------------------
# Backend 3 — PySpark Column
# --------------------------------------------------------------------------


def to_spark(e: Expr):
    """Compile to a PySpark ``Column`` (imported lazily so the pure
    metadata path never needs a JVM)."""
    from pyspark.sql import functions as F

    if isinstance(e, Col):
        return F.col(e.name)
    if isinstance(e, Lit):
        return F.lit(e.value)
    if isinstance(e, Arith):
        l, r = to_spark(e.left), to_spark(e.right)
        return {"+": l + r, "-": l - r, "*": l * r, "/": l / r}[e.op]
    if isinstance(e, Cmp):
        l, r = to_spark(e.left), to_spark(e.right)
        return {
            "<": l < r,
            "<=": l <= r,
            ">": l > r,
            ">=": l >= r,
            "=": l == r,
            "!=": l != r,
        }[e.op]
    if isinstance(e, And):
        out = to_spark(e.args[0])
        for a in e.args[1:]:
            out = out & to_spark(a)
        return out
    if isinstance(e, Or):
        out = to_spark(e.args[0])
        for a in e.args[1:]:
            out = out | to_spark(a)
        return out
    if isinstance(e, Not):
        return ~to_spark(e.arg)
    if isinstance(e, If):
        return F.when(to_spark(e.cond), to_spark(e.then)).otherwise(
            to_spark(e.otherwise)
        )
    if isinstance(e, Like):
        return to_spark(e.arg).like(e.pattern)
    if isinstance(e, StartsWith):
        return to_spark(e.arg).startswith(e.prefix)
    if isinstance(e, InList):
        return to_spark(e.arg).isin(list(e.values))
    if isinstance(e, IsNull):
        return to_spark(e.arg).isNull()
    raise TypeError(f"cannot compile {e!r}")


# --------------------------------------------------------------------------
# Backend 4 — SQL text (DuckDB oracle / classifier corpus)
# --------------------------------------------------------------------------


def _sql_lit(v: Optional[Value]) -> str:
    if v is None:
        return "NULL"
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, _dt.datetime):
        return f"TIMESTAMP '{v.isoformat(sep=' ')}'"
    if isinstance(v, _dt.date):
        return f"DATE '{v.isoformat()}'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    return repr(v)


def to_sql(e: Expr) -> str:
    """Compile to SQL text in a dialect DuckDB and Spark SQL both accept."""
    if isinstance(e, Col):
        return e.name
    if isinstance(e, Lit):
        return _sql_lit(e.value)
    if isinstance(e, Arith):
        return f"({to_sql(e.left)} {e.op} {to_sql(e.right)})"
    if isinstance(e, Cmp):
        op = {"=": "=", "!=": "<>"}.get(e.op, e.op)
        return f"({to_sql(e.left)} {op} {to_sql(e.right)})"
    if isinstance(e, And):
        return "(" + " AND ".join(to_sql(a) for a in e.args) + ")"
    if isinstance(e, Or):
        return "(" + " OR ".join(to_sql(a) for a in e.args) + ")"
    if isinstance(e, Not):
        return f"(NOT {to_sql(e.arg)})"
    if isinstance(e, If):
        return (
            f"(CASE WHEN {to_sql(e.cond)} THEN {to_sql(e.then)} "
            f"ELSE {to_sql(e.otherwise)} END)"
        )
    if isinstance(e, Like):
        return f"({to_sql(e.arg)} LIKE {_sql_lit(e.pattern)})"
    if isinstance(e, StartsWith):
        if any(c in e.prefix for c in "%_\\"):
            raise ValueError("prefix with wildcard chars not supported in SQL")
        return f"({to_sql(e.arg)} LIKE {_sql_lit(e.prefix + '%')})"
    if isinstance(e, InList):
        return f"({to_sql(e.arg)} IN (" + ", ".join(map(_sql_lit, e.values)) + "))"
    if isinstance(e, IsNull):
        return f"({to_sql(e.arg)} IS NULL)"
    raise TypeError(f"cannot compile {e!r}")


# --------------------------------------------------------------------------
# Backend 5 — pandas evaluation with SQL 3VL semantics
# --------------------------------------------------------------------------


def _pd_norm_lit(v: Optional[Value]) -> Any:
    """pandas stores dates/datetimes as datetime64 — normalise literals."""
    if isinstance(v, _dt.date):
        return pd.Timestamp(v)
    return v


def _pd_value(e: Expr, pdf: pd.DataFrame) -> Tuple[pd.Series, pd.Series]:
    """Evaluate a value expression → (values, isnull mask)."""
    n = len(pdf)
    if isinstance(e, Col):
        s = pdf[e.name]
        return s, s.isna()
    if isinstance(e, Lit):
        v = _pd_norm_lit(e.value)
        isnull = pd.Series(v is None, index=pdf.index)
        return pd.Series([v] * n, index=pdf.index), isnull
    if isinstance(e, Arith):
        lv, ln = _pd_value(e.left, pdf)
        rv, rn = _pd_value(e.right, pdf)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = {
                "+": lv + rv,
                "-": lv - rv,
                "*": lv * rv,
                "/": lv / rv,
            }[e.op]
        return out, ln | rn
    if isinstance(e, If):
        ct, _cf = _pd_mask(e.cond, pdf)
        tv, tn = _pd_value(e.then, pdf)
        ov, on = _pd_value(e.otherwise, pdf)
        vals = tv.where(ct, ov)  # NULL/False condition → ELSE branch
        nulls = tn.where(ct, on)
        return vals, nulls.astype(bool)
    raise TypeError(f"not a value expression: {e!r}")


def _like_regex(pattern: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\" and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return "^" + "".join(out) + "$"


def _pd_mask(e: Expr, pdf: pd.DataFrame) -> Tuple[pd.Series, pd.Series]:
    """Evaluate a predicate → (is_TRUE mask, is_FALSE mask); rest is NULL."""
    if isinstance(e, Cmp):
        lv, ln = _pd_value(e.left, pdf)
        rv, rn = _pd_value(e.right, pdf)
        nn = ~(ln | rn)
        cmp = {
            "<": lv < rv,
            "<=": lv <= rv,
            ">": lv > rv,
            ">=": lv >= rv,
            "=": lv == rv,
            "!=": lv != rv,
        }[e.op].fillna(False).astype(bool)
        return cmp & nn, ~cmp & nn
    if isinstance(e, And):
        t = pd.Series(True, index=pdf.index)
        f = pd.Series(False, index=pdf.index)
        for a in e.args:
            at, af = _pd_mask(a, pdf)
            t, f = t & at, f | af
        return t, f
    if isinstance(e, Or):
        t = pd.Series(False, index=pdf.index)
        f = pd.Series(True, index=pdf.index)
        for a in e.args:
            at, af = _pd_mask(a, pdf)
            t, f = t | at, f & af
        return t, f
    if isinstance(e, Not):
        t, f = _pd_mask(e.arg, pdf)
        return f, t
    if isinstance(e, Like):
        v, isnull = _pd_value(e.arg, pdf)
        m = v.astype("string").str.match(_like_regex(e.pattern)).fillna(False)
        m = m.astype(bool)
        return m & ~isnull, ~m & ~isnull
    if isinstance(e, StartsWith):
        v, isnull = _pd_value(e.arg, pdf)
        m = v.astype("string").str.startswith(e.prefix).fillna(False).astype(bool)
        return m & ~isnull, ~m & ~isnull
    if isinstance(e, InList):
        v, isnull = _pd_value(e.arg, pdf)
        m = v.isin([_pd_norm_lit(x) for x in e.values]).astype(bool)
        return m & ~isnull, ~m & ~isnull
    if isinstance(e, IsNull):
        _v, isnull = _pd_value(e.arg, pdf)
        return isnull.astype(bool), ~isnull.astype(bool)
    if isinstance(e, Lit):
        if e.value is None:
            z = pd.Series(False, index=pdf.index)
            return z, z.copy()
        t = pd.Series(bool(e.value), index=pdf.index)
        return t, ~t
    raise TypeError(f"not a predicate: {e!r}")


def to_pandas_mask(e: Expr, pdf: pd.DataFrame) -> pd.Series:
    """Rows where the predicate evaluates to TRUE (SQL filter semantics)."""
    t, _f = _pd_mask(e, pdf)
    return t

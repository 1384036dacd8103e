"""Vectorized tri-state predicate evaluation over a columnar stats view.

:func:`eval3_table` computes, for every partition of a
:class:`~repro.core.stats.StatsTable` at once, the outcome set that the
scalar :func:`repro.core.expr.eval3` computes for one partition: boolean
masks saying whether ``T``, ``F`` and ``N`` are possible, plus ``err``,
the partitions where the scalar evaluation raises ``ValueError`` (stats
with ``min > max``), which the pruners keep as partially matching.

The scalar ``eval3`` is the reference.  Each node below follows its
scalar counterpart in ``expr.py`` and ``intervals.py`` step by step: the
same comparisons in the same form (``not (a < b)``, never ``b <= a``, so
NaN answers agree), the same guards on unbounded sides, and the same
places where a ``TypeError`` makes the outcome unknown.  Where numpy
would not give Python's answer exactly (ints beyond 2**53 against
floats, int64 overflow, mixed or unusual value types), the elements
concerned are evaluated on the Python values with the scalar code.

One deliberate difference: stats whose ``min`` and ``max`` cannot be
compared with each other (corrupt metadata) count as ``err``, where the
scalar code raises ``TypeError``; both end as partially matching.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import intervals as iv
from .expr import (
    _WILDCARDS,
    And,
    Arith,
    Cmp,
    Col,
    Expr,
    If,
    InList,
    IsNull,
    Like,
    Lit,
    Not,
    Or,
    StartsWith,
    like_prefix,
)
from .intervals import Interval
from .stats import (
    DATE,
    DATETIME,
    FLOAT,
    INT,
    NONE,
    OBJ,
    STR,
    StatsTable,
    decode_values,
    encode_values,
)

_NUM = (INT, FLOAT)
_ORDERED = (INT, FLOAT, STR, DATE, DATETIME)
#: Largest magnitude up to which every int is exactly a float64.
_EXACT = 2**53
_INT64_LIMIT = 2**63


@dataclass
class VBounds:
    """Per-partition :class:`~repro.core.expr.VBounds`: interval bounds
    (``lo``/``hi`` of one value kind, valid where ``has_lo``/``has_hi``)
    plus null flags and the ``ValueError`` mask."""

    kind: str
    lo: np.ndarray
    hi: np.ndarray
    has_lo: np.ndarray
    has_hi: np.ndarray
    may_null: np.ndarray
    all_null: np.ndarray
    err: np.ndarray


@dataclass
class Outcomes:
    """Per-partition outcome sets: is ``T``/``F``/``N`` possible, and did
    the scalar evaluation raise ``ValueError`` (``err``)."""

    t: np.ndarray
    f: np.ndarray
    n: np.ndarray
    err: np.ndarray


def _false(n: int) -> np.ndarray:
    return np.zeros(n, dtype=bool)


def _const(n: int, t: bool, f: bool, nn: bool) -> Outcomes:
    return Outcomes(np.full(n, t), np.full(n, f), np.full(n, nn), _false(n))


def _filler(kind: str, n: int) -> np.ndarray:
    if kind == STR:
        return np.full(n, "", dtype=object)
    if kind == OBJ:
        return np.full(n, None, dtype=object)
    if kind == DATE:
        return np.ones(n, dtype=np.int64)
    if kind in (INT, DATETIME):
        return np.zeros(n, dtype=np.int64)
    return np.zeros(n, dtype=np.float64)


def _top(n: int) -> Tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    z = np.zeros(n, dtype=np.float64)
    return NONE, z, z, _false(n), _false(n)


# --------------------------------------------------------------------------
# Elementwise comparison with Python semantics
# --------------------------------------------------------------------------


def _fits_float(arr: np.ndarray, mask: np.ndarray) -> bool:
    v = arr[mask]
    return not len(v) or (int(v.min()) >= -_EXACT and int(v.max()) <= _EXACT)


def _max_abs(arr: np.ndarray, mask: np.ndarray) -> int:
    v = arr[mask]
    return max(-int(v.min()), int(v.max()), 0) if len(v) else 0


_INCOMPARABLE = object()


def _native_pair(ka, a, kb, b, mask):
    """``(x, y)`` whose numpy ``<``/``==`` equal Python's on the values,
    ``None`` to compare the Python values, or ``_INCOMPARABLE`` for kinds
    Python cannot order (``<`` raises ``TypeError``, ``==`` is False)."""
    if ka == kb and ka in _ORDERED:
        return a, b
    if ka in _NUM and kb in _NUM:
        if ka == INT:
            return (a.astype(np.float64), b) if _fits_float(a, mask) else None
        return (a, b.astype(np.float64)) if _fits_float(b, mask) else None
    if OBJ in (ka, kb):
        return None
    return _INCOMPARABLE


def _compare(op: str, ka: str, a: np.ndarray, kb: str, b: np.ndarray,
             mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``a < b`` (``op='<'``) or ``a == b`` (``op='=='``) where ``mask``.

    Returns ``(result, type_error)``; both are False outside ``mask``.
    """
    n = len(mask)
    if not mask.any():
        return _false(n), _false(n)
    pair = _native_pair(ka, a, kb, b, mask)
    if pair is _INCOMPARABLE:
        return _false(n), (mask.copy() if op == "<" else _false(n))
    if pair is not None:
        x, y = pair
        r = (x < y) if op == "<" else (x == y)
        return r & mask, _false(n)
    fn = operator.lt if op == "<" else operator.eq
    xa, xb = decode_values(ka, a), decode_values(kb, b)
    res, terr = _false(n), _false(n)
    for i in np.flatnonzero(mask).tolist():
        try:
            res[i] = bool(fn(xa[i], xb[i]))
        except TypeError:
            terr[i] = True
    return res, terr


def _lt(ka, a, kb, b, mask):
    return _compare("<", ka, a, kb, b, mask)


# --------------------------------------------------------------------------
# Value bounds (scalar: expr.bounds)
# --------------------------------------------------------------------------


def _col_bounds(name: str, tbl: StatsTable) -> VBounds:
    key = ("bounds", name)
    vb = tbl.memo.get(key)
    if vb is None:
        c = tbl.column(name)
        # Interval(min, max) raises ValueError when max < min.
        inverted, terr = _lt(c.kind, c.hi, c.kind, c.lo, c.has_lo & c.has_hi)
        vb = VBounds(
            kind=c.kind, lo=c.lo, hi=c.hi, has_lo=c.has_lo, has_hi=c.has_hi,
            may_null=c.may_null,
            all_null=c.all_null & (tbl.row_count > 0),
            err=inverted | terr,
        )
        tbl.memo[key] = vb
    return vb


def _value_array(v, n: int) -> Tuple[str, np.ndarray]:
    """Kind and length-``n`` array of the literal ``v`` (``None`` stays a
    Python ``None``, which raises ``TypeError`` when ordered)."""
    kind, arr = encode_values([v]) if v is not None else (OBJ, None)
    out = np.empty(n, dtype=object if arr is None else arr.dtype)
    out.fill(v if arr is None else arr[0])
    return kind, out


def _lit_bounds(v, n: int) -> VBounds:
    if v is None:
        kind, z, _, f, _ = _top(n)
        t = np.ones(n, dtype=bool)
        return VBounds(kind, z, z, f, f, t, t, _false(n))
    kind, vals = _value_array(v, n)
    t = np.ones(n, dtype=bool)
    return VBounds(kind, vals, vals, t, t, _false(n), _false(n), _false(n))


def _unify(a: VBounds, b: VBounds) -> Tuple[VBounds, VBounds]:
    """Bring two bounds to one value kind (``obj`` if they differ)."""
    if a.kind == b.kind:
        return a, b
    n = len(a.lo)
    if a.kind == NONE or b.kind == NONE:
        kind = b.kind if a.kind == NONE else a.kind
        fill = _filler(kind, n)
        if a.kind == NONE:
            a = VBounds(kind, fill, fill, a.has_lo, a.has_hi, a.may_null,
                        a.all_null, a.err)
        else:
            b = VBounds(kind, fill, fill, b.has_lo, b.has_hi, b.may_null,
                        b.all_null, b.err)
        return a, b

    def obj(x: VBounds) -> VBounds:
        return VBounds(OBJ, decode_values(x.kind, x.lo),
                       decode_values(x.kind, x.hi), x.has_lo, x.has_hi,
                       x.may_null, x.all_null, x.err)

    return obj(a), obj(b)


def _arith_py(op: str, a: VBounds, b: VBounds, mask: np.ndarray):
    """The scalar interval operation, element by element."""
    fn = {"+": iv.add, "-": iv.sub, "*": iv.mul, "/": iv.div}[op]
    n = len(mask)
    al, ah = decode_values(a.kind, a.lo), decode_values(a.kind, a.hi)
    bl, bh = decode_values(b.kind, b.lo), decode_values(b.kind, b.hi)
    los, his = [None] * n, [None] * n
    for i in np.flatnonzero(mask).tolist():
        try:
            out = fn(
                Interval(al[i] if a.has_lo[i] else None,
                         ah[i] if a.has_hi[i] else None),
                Interval(bl[i] if b.has_lo[i] else None,
                         bh[i] if b.has_hi[i] else None),
            )
        except (TypeError, ValueError):
            continue
        los[i], his[i] = out.lo, out.hi
    kind, both = encode_values(los + his)
    has_lo = np.array([v is not None for v in los], dtype=bool)
    has_hi = np.array([v is not None for v in his], dtype=bool)
    return kind, both[:n], both[n:], has_lo, has_hi


def _arith_domain(op: str, a: VBounds, b: VBounds) -> str:
    """``int``/``float`` when numpy reproduces Python's arithmetic on
    these values exactly, else ``py``."""
    if a.kind not in _NUM or b.kind not in _NUM:
        return "py"
    if a.kind == FLOAT or b.kind == FLOAT:
        return "float"  # int -> float64 rounds as Python's int -> float
    ma = max(_max_abs(a.lo, a.has_lo), _max_abs(a.hi, a.has_hi))
    mb = max(_max_abs(b.lo, b.has_lo), _max_abs(b.hi, b.has_hi))
    if op == "/":
        return "float" if ma <= _EXACT and mb <= _EXACT else "py"
    bound = ma * mb if op == "*" else ma + mb
    return "int" if bound < _INT64_LIMIT else "py"


def _fold(corners, pick: Callable) -> np.ndarray:
    """Python's ``min``/``max`` over four corner arrays: keep the current
    value unless the next one compares strictly better."""
    cur = corners[0]
    for c in corners[1:]:
        cur = np.where(pick(c, cur), c, cur)
    return cur


def _arith_bounds(e: Arith, tbl: StatsTable) -> VBounds:
    a, b = _bounds(e.left, tbl), _bounds(e.right, tbl)
    n = tbl.n
    full = a.has_lo & a.has_hi & b.has_lo & b.has_hi
    if e.op in "+-":
        use = (a.has_lo | a.has_hi) & (b.has_lo | b.has_hi)
    else:
        use = full
    if not use.any():
        kind, lo, hi, has_lo, has_hi = _top(n)
    else:
        domain = _arith_domain(e.op, a, b)
        if domain == "py":
            kind, lo, hi, has_lo, has_hi = _arith_py(e.op, a, b, use)
        else:
            kind, lo, hi, has_lo, has_hi = _arith_native(e.op, a, b, full, domain)
    return VBounds(kind, lo, hi, has_lo, has_hi,
                   may_null=a.may_null | b.may_null,
                   all_null=a.all_null | b.all_null,
                   err=a.err | b.err)


def _arith_native(op: str, a: VBounds, b: VBounds, full: np.ndarray,
                  domain: str):
    dt = np.int64 if domain == "int" else np.float64
    al, ah, bl, bh = (x.astype(dt, copy=False) for x in (a.lo, a.hi, b.lo, b.hi))
    with np.errstate(all="ignore"):
        if op == "+":
            lo, hi = al + bl, ah + bh
            has_lo, has_hi = a.has_lo & b.has_lo, a.has_hi & b.has_hi
        elif op == "-":
            lo, hi = al - bh, ah - bl
            has_lo, has_hi = a.has_lo & b.has_hi, a.has_hi & b.has_lo
        else:
            ok = full
            if op == "/":
                # intervals.div: TOP when the divisor range contains 0.
                zero = ~(b.has_lo & (0 < bl)) & ~(b.has_hi & (bh < 0))
                ok = full & ~zero
                bl, bh = np.where(ok, bl, 1), np.where(ok, bh, 1)
                corners = [al / bl, al / bh, ah / bl, ah / bh]
            else:
                corners = [al * bl, al * bh, ah * bl, ah * bh]
            lo = _fold(corners, lambda c, cur: c < cur)
            hi = _fold(corners, lambda c, cur: c > cur)
            has_lo = has_hi = ok
        # Interval(lo, hi) raises ValueError when hi < lo: TOP.
        bad = has_lo & has_hi & (hi < lo)
    has_lo, has_hi = has_lo & ~bad, has_hi & ~bad
    kind = INT if domain == "int" else FLOAT
    return kind, np.where(has_lo, lo, 0), np.where(has_hi, hi, 0), has_lo, has_hi


def _if_bounds(e: If, tbl: StatsTable) -> VBounds:
    c = _eval(e.cond, tbl)
    tb, ob = _unify(_bounds(e.then, tbl), _bounds(e.otherwise, tbl))
    kind = tb.kind
    take_t, take_e = c.t, c.f | c.n  # SQL: NULL condition takes ELSE
    both = take_t & take_e
    only_t, only_e = take_t & ~take_e, take_e & ~take_t

    # intervals.hull of the two branches, where both may be taken.
    m_lo = both & tb.has_lo & ob.has_lo
    lo_lt, e1 = _lt(kind, ob.lo, kind, tb.lo, m_lo)
    m_hi = both & tb.has_hi & ob.has_hi
    hi_lt, e2 = _lt(kind, tb.hi, kind, ob.hi, m_hi)
    h_lo = np.where(lo_lt, ob.lo, tb.lo)
    h_hi = np.where(hi_lt, ob.hi, tb.hi)
    inverted, e3 = _lt(kind, h_hi, kind, h_lo, m_lo & m_hi)
    top = e1 | e2 | e3 | inverted  # TypeError/ValueError in hull: TOP

    lo = np.where(only_e, ob.lo, np.where(both, h_lo, tb.lo))
    hi = np.where(only_e, ob.hi, np.where(both, h_hi, tb.hi))
    has_lo = (only_t & tb.has_lo) | (only_e & ob.has_lo) | (m_lo & ~top)
    has_hi = (only_t & tb.has_hi) | (only_e & ob.has_hi) | (m_hi & ~top)
    neither = ~take_t & ~take_e
    may_null = ((only_t & tb.may_null) | (only_e & ob.may_null)
                | (both & (tb.may_null | ob.may_null)) | neither)
    all_null = ((only_t & tb.all_null) | (only_e & ob.all_null)
                | (both & tb.all_null & ob.all_null))
    err = c.err | (take_t & tb.err) | (take_e & ob.err)
    return VBounds(kind, lo, hi, has_lo, has_hi, may_null, all_null, err)


def _bounds(e: Expr, tbl: StatsTable) -> VBounds:
    if isinstance(e, Col):
        return _col_bounds(e.name, tbl)
    if isinstance(e, Lit):
        return _lit_bounds(e.value, tbl.n)
    if isinstance(e, Arith):
        return _arith_bounds(e, tbl)
    if isinstance(e, If):
        return _if_bounds(e, tbl)
    raise TypeError(f"not a value expression: {e!r}")


# --------------------------------------------------------------------------
# Tri-state evaluation (scalar: expr.eval3)
# --------------------------------------------------------------------------


def _is_point(b: VBounds) -> np.ndarray:
    eq, _ = _compare("==", b.kind, b.lo, b.kind, b.hi, b.has_lo & b.has_hi)
    return eq


def _cmp_tf(op: str, l: VBounds, r: VBounds, mask: np.ndarray):
    """``_cmp_outcomes``: (T possible, F possible, TypeError) per element."""
    if op in (">", ">="):
        t, f, terr = _cmp_tf("<=" if op == ">" else "<", l, r, mask)
        return f, t, terr
    if op == "!=":
        t, f, terr = _cmp_tf("=", l, r, mask)
        return f, t, terr
    if op == "<":
        m1 = mask & r.has_hi & l.has_lo  # r.entirely_le(l)
        c1, e1 = _lt(l.kind, l.lo, r.kind, r.hi, m1)
        m2 = mask & l.has_hi & r.has_lo  # l.entirely_lt(r)
        c2, e2 = _lt(l.kind, l.hi, r.kind, r.lo, m2)
        return ~(m1 & ~c1), ~(m2 & c2), e1 | e2
    if op == "<=":
        m1 = mask & r.has_hi & l.has_lo  # r.entirely_lt(l)
        c1, e1 = _lt(r.kind, r.hi, l.kind, l.lo, m1)
        m2 = mask & l.has_hi & r.has_lo  # l.entirely_le(r)
        c2, e2 = _lt(r.kind, r.lo, l.kind, l.hi, m2)
        return ~(m1 & c1), ~(m2 & ~c2), e1 | e2
    if op == "=":
        m1 = mask & l.has_hi & r.has_lo  # l.overlaps(r), first test
        c1, e1 = _lt(l.kind, l.hi, r.kind, r.lo, m1)
        m2 = mask & r.has_hi & l.has_lo & ~c1 & ~e1
        c2, e2 = _lt(r.kind, r.hi, l.kind, l.lo, m2)
        t = ~c1 & ~c2
        same, _ = _compare("==", l.kind, l.lo, r.kind, r.lo,
                           mask & l.has_lo & r.has_lo)
        f = ~(_is_point(l) & _is_point(r) & same)
        return t, f, e1 | e2
    raise ValueError(f"unknown comparison {op}")


def _eval_cmp(e: Cmp, tbl: StatsTable) -> Outcomes:
    try:
        lb, rb = _bounds(e.left, tbl), _bounds(e.right, tbl)
    except TypeError:
        return _const(tbl.n, True, True, True)
    all_null = lb.all_null | rb.all_null
    t, f, terr = _cmp_tf(e.op, lb, rb, ~all_null)
    nn = lb.may_null | rb.may_null
    live = ~all_null
    return Outcomes(
        t=live & (t | terr),
        f=live & (f | terr),
        n=np.where(all_null, tbl.row_count > 0, nn | terr),
        err=lb.err | rb.err,
    )


def _startswith(kind: str, arr: np.ndarray, prefix: str, succ,
                mask: np.ndarray) -> np.ndarray:
    """``isinstance(v, str) and v.startswith(prefix)`` where ``mask``.

    For strings, ``s.startswith(p)`` iff ``p <= s < prefix_successor(p)``
    (``p <= s`` alone when there is no successor)."""
    if kind == STR:
        # Object arrays on both sides: a Python str scalar would become a
        # numpy string, which drops trailing NULs.
        out = ~(arr < _value_array(prefix, len(arr))[1])
        if succ is not None:
            out &= arr < _value_array(succ, len(arr))[1]
        return out & mask
    if kind == OBJ:
        out = _false(len(mask))
        for i in np.flatnonzero(mask).tolist():
            v = arr[i]
            out[i] = isinstance(v, str) and v.startswith(prefix)
        return out
    return _false(len(mask))


def _eval_prefix(e, b: VBounds, tbl: StatsTable) -> Outcomes:
    n = tbl.n
    if isinstance(e, Like):
        prefix, pure = like_prefix(e.pattern)
        if not any(c in e.pattern.replace("\\%", "").replace("\\_", "")
                   for c in _WILDCARDS):
            # No wildcards at all: LIKE degenerates to equality.
            return _eval_cmp(Cmp("=", e.arg, Lit(e.pattern.replace("\\", ""))), tbl)
    else:
        prefix, pure = e.prefix, True
    live = ~b.all_null
    succ = iv.prefix_successor(prefix)
    pkind, p = _value_array(prefix, n)
    if prefix == "":
        t, terr = np.ones(n, dtype=bool), _false(n)
    else:  # intervals.prefix_overlap
        m1 = live & b.has_hi
        c1, e1 = _lt(b.kind, b.hi, pkind, p, m1)
        terr = e1
        t = ~c1
        if succ is not None:
            m2 = live & b.has_lo & ~c1 & ~e1
            c2, e2 = _lt(b.kind, b.lo, pkind, _value_array(succ, n)[1], m2)
            t = t & ~(m2 & ~c2)
            terr = terr | e2
    if pure:  # intervals.prefix_covers
        m = live & b.has_lo & b.has_hi
        covers = (_startswith(b.kind, b.lo, prefix, succ, m)
                  & _startswith(b.kind, b.hi, prefix, succ, m))
        f = ~covers
    else:  # widened (imprecise) rewrite: match never guaranteed
        f = np.ones(n, dtype=bool)
    return Outcomes(
        t=live & (t | terr),
        f=live & (f | terr),
        n=b.all_null | b.may_null,
        err=b.err,
    )


def _eval_inlist(e: InList, b: VBounds, tbl: StatsTable) -> Outcomes:
    n = tbl.n
    live = ~b.all_null
    found, terr = _false(n), _false(n)
    hits = _false(n)
    for v in e.values:
        kind, val = _value_array(v, n)
        # Interval.contains(v), inside any(): stops at the first True.
        pend = live & ~found & ~terr
        m1 = pend & b.has_lo
        below, e1 = _lt(kind, val, b.kind, b.lo, m1)
        m2 = pend & ~below & ~e1 & b.has_hi
        above, e2 = _lt(b.kind, b.hi, kind, val, m2)
        terr |= e1 | e2
        found |= pend & ~below & ~e1 & ~above & ~e2
        eq, _ = _compare("==", b.kind, b.lo, kind, val, live & b.has_lo)
        hits |= eq
    f = ~(_is_point(b) & hits)
    return Outcomes(
        t=live & (found | terr),
        f=live & (f | terr),
        n=b.all_null | b.may_null,
        err=b.err,
    )


def _combine(args, tbl: StatsTable, conj: bool) -> Outcomes:
    """Fold ``_and3``/``_or3`` over the children's outcome sets.

    For AND: F possible if either side may be F (and the other side is
    non-empty); T only if both may be T; N if one side may be N and the
    other may be N or T.  OR is the dual with T and F swapped.
    """
    acc = _eval(args[0], tbl)
    for a in args[1:]:
        o = _eval(a, tbl)
        a_any = acc.t | acc.f | acc.n
        o_any = o.t | o.f | o.n
        if conj:
            t = acc.t & o.t
            f = (acc.f & o_any) | (o.f & a_any)
            nn = (acc.n & (o.n | o.t)) | (o.n & (acc.n | acc.t))
        else:
            f = acc.f & o.f
            t = (acc.t & o_any) | (o.t & a_any)
            nn = (acc.n & (o.n | o.f)) | (o.n & (acc.n | acc.f))
        acc = Outcomes(t, f, nn, acc.err | o.err)
    return acc


def _eval(e: Expr, tbl: StatsTable) -> Outcomes:
    if isinstance(e, Cmp):
        return _eval_cmp(e, tbl)
    if isinstance(e, And):
        return _combine(e.args, tbl, conj=True)
    if isinstance(e, Or):
        return _combine(e.args, tbl, conj=False)
    if isinstance(e, Not):
        o = _eval(e.arg, tbl)
        return Outcomes(o.f, o.t, o.n, o.err)
    if isinstance(e, (Like, StartsWith)):
        b = _bounds(e.arg, tbl)
        out = _eval_prefix(e, b, tbl)
        alln = b.all_null  # N_ONLY, checked before anything else
        return Outcomes(out.t & ~alln, out.f & ~alln, out.n | alln,
                        b.err | out.err)
    if isinstance(e, InList):
        return _eval_inlist(e, _bounds(e.arg, tbl), tbl)
    if isinstance(e, IsNull):
        b = _bounds(e.arg, tbl)
        return Outcomes(b.may_null.copy(), ~b.all_null, _false(tbl.n), b.err)
    if isinstance(e, Lit):  # boolean literal predicates (WHERE true)
        if e.value is None:
            return _const(tbl.n, False, False, True)
        return _const(tbl.n, bool(e.value), not e.value, False)
    raise TypeError(f"not a predicate: {e!r}")


def eval3_table(e: Expr, tbl: StatsTable) -> Outcomes:
    """Possible per-row outcomes of predicate ``e`` on every partition of
    ``tbl``: the scalar :func:`~repro.core.expr.eval3`, vectorized.

    Raises ``TypeError`` for a malformed predicate (a value expression
    where a predicate belongs), as the scalar code does.
    """
    return _eval(e, tbl)

"""Corpus-wide expression interning for the arena IR.

The object-graph pipeline pays for expression identity over and over:
every :class:`~repro.dataflow.bitsets.ExpressionSpace` hashes whole AST
subtrees to key its gen/kill dicts, ``repr``-sorts its universe from
scratch, and re-walks ``subexpressions`` per node -- per program, per
run.  The :class:`ExpressionPool` pays each of those costs **once per
distinct expression across the whole corpus**: interning assigns every
structurally-distinct expression a small integer id (hash-consing), and
the pool precomputes, per id,

* the canonical span-free AST object (equal to -- and hashing like --
  every occurrence, since spans are excluded from equality),
* the ``repr`` sort key and a corpus-global rank consistent with it
  (so per-program universes sort by integer rank, never by string),
* the referenced variable-name ids (``Vars(e)`` for kill masks), and
* the non-trivial subexpression ids (``gen_expressions`` as an id
  tuple).

After lowering, every per-program compile (gen/kill masks, universes,
constant-propagation evaluation) runs on these integer tables alone --
the :class:`~repro.util.counters.WorkCounter` tests assert the fused
batch sweep does no re-interning at all.

Interning is insertion-ordered and structure-driven, so pool ids are
deterministic for a fixed lowering order and independent of
``PYTHONHASHSEED`` (the memo dict's iteration order is never consulted;
ids are handed out by arrival).
"""

from __future__ import annotations

from typing import Optional

from repro.lang.ast_nodes import (
    BINARY_OPS,
    UNARY_OPS,
    BinOp,
    Expr,
    Index,
    IntLit,
    UnOp,
    Update,
    Var,
)
from repro.util.counters import WorkCounter

#: Expression kind tags (the ``kind`` table vocabulary).
K_INT = 0
K_VAR = 1
K_BIN = 2
K_UN = 3
K_INDEX = 4
K_UPDATE = 5


class ExpressionPool:
    """Struct-of-arrays interning table for expressions and names.

    Per expression id ``e``:

    * ``kind[e]`` -- one of the ``K_*`` tags;
    * ``arg0[e]`` -- literal-table index (``K_INT``), name id (``K_VAR``,
      ``K_INDEX``, ``K_UPDATE``), or operator index (``K_BIN`` into
      ``BINARY_OPS``, ``K_UN`` into ``UNARY_OPS``);
    * ``arg1[e]`` / ``arg2[e]`` -- operand expression ids (or ``-1``).

    Derived tables (rebuilt deterministically after deserialization, so
    they are never shipped): ``objects`` (canonical AST node), ``reprs``
    (the sort key), ``trivial``, ``var_ids`` and ``gen_ids``.
    """

    __slots__ = (
        "names", "name_index", "literals", "literal_index",
        "kind", "arg0", "arg1", "arg2",
        "objects", "reprs", "trivial", "var_ids", "gen_ids",
        "_memo", "_ranks", "counter",
    )

    def __init__(self, counter: WorkCounter | None = None) -> None:
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.literals: list[int] = []
        self.literal_index: dict[int, int] = {}
        self.kind: list[int] = []
        self.arg0: list[int] = []
        self.arg1: list[int] = []
        self.arg2: list[int] = []
        self.objects: list[Expr] = []
        self.reprs: list[str] = []
        self.trivial: list[bool] = []
        self.var_ids: list[tuple[int, ...]] = []
        self.gen_ids: list[tuple[int, ...]] = []
        self._memo: dict[Expr, int] = {}
        self._ranks: tuple[int, list[int]] | None = None
        self.counter = counter

    def __len__(self) -> int:
        return len(self.kind)

    # -- name / literal interning -------------------------------------------

    def intern_name(self, name: str) -> int:
        got = self.name_index.get(name)
        if got is None:
            got = len(self.names)
            self.names.append(name)
            self.name_index[name] = got
        return got

    def _intern_literal(self, value: int) -> int:
        got = self.literal_index.get(value)
        if got is None:
            got = len(self.literals)
            self.literals.append(value)
            self.literal_index[value] = got
        return got

    # -- expression interning ------------------------------------------------

    def intern(self, expr: Expr) -> int:
        """The pool id of ``expr`` (hash-consed; spans are ignored)."""
        got = self._memo.get(expr)
        if got is not None:
            if self.counter is not None:
                self.counter.tick("arena_intern_hits")
            return got
        if self.counter is not None:
            self.counter.tick("arena_interned")
        if isinstance(expr, IntLit):
            row = (K_INT, self._intern_literal(expr.value), -1, -1)
            canon: Expr = IntLit(expr.value)
            var_ids: tuple[int, ...] = ()
            triv = True
            kids: tuple[int, ...] = ()
        elif isinstance(expr, Var):
            nid = self.intern_name(expr.name)
            row = (K_VAR, nid, -1, -1)
            canon = Var(expr.name)
            var_ids = (nid,)
            triv = True
            kids = ()
        elif isinstance(expr, BinOp):
            left = self.intern(expr.left)
            right = self.intern(expr.right)
            row = (K_BIN, BINARY_OPS.index(expr.op), left, right)
            canon = BinOp(expr.op, self.objects[left], self.objects[right])
            var_ids = self._union_vars(left, right)
            triv = False
            kids = (left, right)
        elif isinstance(expr, UnOp):
            operand = self.intern(expr.operand)
            row = (K_UN, UNARY_OPS.index(expr.op), operand, -1)
            canon = UnOp(expr.op, self.objects[operand])
            var_ids = self.var_ids[operand]
            triv = False
            kids = (operand,)
        elif isinstance(expr, Index):
            index = self.intern(expr.index)
            nid = self.intern_name(expr.array)
            row = (K_INDEX, nid, index, -1)
            canon = Index(expr.array, self.objects[index])
            var_ids = self._union_vars(index, extra=nid)
            triv = False
            kids = (index,)
        elif isinstance(expr, Update):
            index = self.intern(expr.index)
            value = self.intern(expr.value)
            nid = self.intern_name(expr.array)
            row = (K_UPDATE, nid, index, value)
            canon = Update(expr.array, self.objects[index], self.objects[value])
            var_ids = self._union_vars(index, value, extra=nid)
            triv = False
            kids = (index, value)
        else:
            raise TypeError(f"not an expression: {expr!r}")

        eid = len(self.kind)
        self.kind.append(row[0])
        self.arg0.append(row[1])
        self.arg1.append(row[2])
        self.arg2.append(row[3])
        self.objects.append(canon)
        self.reprs.append(repr(canon))
        self.trivial.append(triv)
        self.var_ids.append(var_ids)
        # gen_expressions(node) == the non-trivial subexpressions of the
        # node's expr, self included; as ids, that is self (when
        # non-trivial) plus the children's gen tuples.
        gen: tuple[int, ...] = () if triv else (eid,)
        for kid in kids:
            gen += self.gen_ids[kid]
        self.gen_ids.append(gen)
        # Both the original (possibly span-carrying) node and the
        # canonical one memoize to the id: they are equal and hash alike.
        self._memo[expr] = eid
        self._memo[canon] = eid
        self._ranks = None
        return eid

    def _union_vars(self, *eids: int, extra: int | None = None) -> tuple[int, ...]:
        seen: set[int] = set() if extra is None else {extra}
        for eid in eids:
            seen.update(self.var_ids[eid])
        return tuple(sorted(seen))

    # -- derived orderings ---------------------------------------------------

    def ranks(self) -> list[int]:
        """``ranks()[eid]`` orders expression ids exactly as sorting their
        AST objects by ``repr`` would (the :class:`ExpressionSpace`
        universe order).  Computed once per pool generation; per-program
        universes then sort by integer rank."""
        if self._ranks is None or self._ranks[0] != len(self.kind):
            order = sorted(range(len(self.kind)), key=self.reprs.__getitem__)
            ranks = [0] * len(order)
            for rank, eid in enumerate(order):
                ranks[eid] = rank
            self._ranks = (len(self.kind), ranks)
        return self._ranks[1]

    # -- reconstruction (deserialization) ------------------------------------

    def _rebuild_derived(self) -> None:
        """Recompute every derived table from the shipped core tables
        (kinds, args, names, literals) -- bottom-up over ids, which is a
        topological order by construction."""
        self.objects = []
        self.reprs = []
        self.trivial = []
        self.var_ids = []
        self.gen_ids = []
        self._memo = {}
        self._ranks = None
        self.name_index = {name: i for i, name in enumerate(self.names)}
        self.literal_index = {v: i for i, v in enumerate(self.literals)}
        # Per kind tag: the bound of ``arg0`` (its literal, name or
        # operator table) and how many of ``arg1``/``arg2`` are operands.
        shape = {
            K_INT: (len(self.literals), 0),
            K_VAR: (len(self.names), 0),
            K_BIN: (len(BINARY_OPS), 2),
            K_UN: (len(UNARY_OPS), 1),
            K_INDEX: (len(self.names), 1),
            K_UPDATE: (len(self.names), 2),
        }
        for eid in range(len(self.kind)):
            kind = self.kind[eid]
            a0, a1, a2 = self.arg0[eid], self.arg1[eid], self.arg2[eid]
            bound, arity = shape.get(kind, (0, 0))
            # Operands must be earlier rows: ids are handed out bottom-up,
            # and a negative id would silently index from the end.
            if not (
                0 <= a0 < bound
                and all(0 <= kid < eid for kid in (a1, a2)[:arity])
            ):
                from repro.robust.errors import InputError

                raise InputError(
                    f"corrupt expression pool: row {eid} "
                    f"(kind {kind}, args {a0}, {a1}, {a2}) is out of range",
                    phase="arena-decode",
                )
            if kind == K_INT:
                canon: Expr = IntLit(self.literals[a0])
                var_ids: tuple[int, ...] = ()
                triv = True
                kids: tuple[int, ...] = ()
            elif kind == K_VAR:
                canon = Var(self.names[a0])
                var_ids = (a0,)
                triv = True
                kids = ()
            elif kind == K_BIN:
                canon = BinOp(
                    BINARY_OPS[a0], self.objects[a1], self.objects[a2]
                )
                var_ids = self._merge(self.var_ids[a1], self.var_ids[a2])
                triv = False
                kids = (a1, a2)
            elif kind == K_UN:
                canon = UnOp(UNARY_OPS[a0], self.objects[a1])
                var_ids = self.var_ids[a1]
                triv = False
                kids = (a1,)
            elif kind == K_INDEX:
                canon = Index(self.names[a0], self.objects[a1])
                var_ids = self._merge((a0,), self.var_ids[a1])
                triv = False
                kids = (a1,)
            else:  # K_UPDATE
                canon = Update(
                    self.names[a0], self.objects[a1], self.objects[a2]
                )
                var_ids = self._merge(
                    (a0,), self.var_ids[a1], self.var_ids[a2]
                )
                triv = False
                kids = (a1, a2)
            self.objects.append(canon)
            self.reprs.append(repr(canon))
            self.trivial.append(triv)
            self.var_ids.append(var_ids)
            gen: tuple[int, ...] = () if triv else (eid,)
            for kid in kids:
                gen += self.gen_ids[kid]
            self.gen_ids.append(gen)
            self._memo[canon] = eid

    @staticmethod
    def _merge(*groups: tuple[int, ...]) -> tuple[int, ...]:
        seen: set[int] = set()
        for group in groups:
            seen.update(group)
        return tuple(sorted(seen))


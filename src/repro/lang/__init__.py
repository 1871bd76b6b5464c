"""A small imperative language: the programs the analyses operate on.

The paper's analyses are defined over control flow graphs, but every real
compiler starts from source text.  This package provides:

* :mod:`repro.lang.ast_nodes` -- expression and statement AST,
* :mod:`repro.lang.lexer` / :mod:`repro.lang.parser` -- concrete syntax,
* :mod:`repro.lang.pretty` -- an unparser,
* :mod:`repro.lang.interp` -- a counting reference interpreter used to
  verify that optimizations preserve observable behaviour and do not add
  expression evaluations to any path (the Morel-Renvoise safety criterion).

The language is deliberately minimal (integer variables, structured control
flow, plus ``goto``/``label`` so that arbitrary -- including irreducible --
control flow graphs can be written down).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Assign": ".ast_nodes",
    "BinOp": ".ast_nodes",
    "ExecutionResult": ".interp",
    "Goto": ".ast_nodes",
    "If": ".ast_nodes",
    "IntLit": ".ast_nodes",
    "Interpreter": ".interp",
    "Label": ".ast_nodes",
    "LangError": ".errors",
    "LexError": ".errors",
    "ParseError": ".errors",
    "Print": ".ast_nodes",
    "Program": ".ast_nodes",
    "Repeat": ".ast_nodes",
    "Skip": ".ast_nodes",
    "Token": ".lexer",
    "UnOp": ".ast_nodes",
    "Var": ".ast_nodes",
    "While": ".ast_nodes",
    "parse_expr": ".parser",
    "parse_program": ".parser",
    "pretty_expr": ".pretty",
    "pretty_program": ".pretty",
    "run_program": ".interp",
    "tokenize": ".lexer",
})

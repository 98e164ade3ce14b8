"""Frozen reference implementations shared by ``tests/`` and ``benchmarks/``.

Each module here preserves, verbatim, a hot loop the program has since
rewritten.  The differential tests pin the live code against these copies
and the benchmarks time the live code against them, so their value is
being frozen: do not "fix" or optimise them.
"""

"""Benchmark harness for sasakijoin: seeded inputs, timed passes, an
independent output check, and a traced run with per-module spans.

Nothing here edits the package.  The traced run wraps public functions by
rebinding the names that the calling modules imported, and undoes the
rebinding when the run ends.
"""

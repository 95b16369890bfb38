"""Reference implementations that only tests compare against.

Two kinds live here, and no module under ``src/`` imports either
(``tools/check_imports.py`` enforces that):

* slow, obviously-correct forms of a path the library computes faster
  (``mesh``, ``model_tables``); the tests pin the fast path bit-identical
  to them;
* independent models that cross-check the library's closed forms
  (``eventsim``, a discrete-event queueing simulator, and ``traces``,
  trace-driven cache validation on the ``cachesim`` functional cache);
  the tests check agreement within a tolerance.
"""

"""Closed-loop serving benchmark for the prediction service.

``python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1``
boots the real ``repro serve`` process tree, drives it over keep-alive
HTTP connections, verifies every answer against an in-process oracle and
prints one JSON result line.  See ``servebench/README.md``.
"""

"""Shared utilities for the knl-hybridmem reproduction.

This subpackage carries the small, dependency-free helpers used across the
machine model, the memory subsystem, the performance engine and the
experiment harness:

* :mod:`repro.util.units` — byte/time/rate unit constants and parsing
  (``GiB``, ``ns``, ``GB/s`` ...).  The paper mixes decimal GB (rates) and
  binary GiB (capacities); the conventions are pinned down here once.
* :mod:`repro.util.tables` — plain-text table rendering for the benchmark
  harness output (the "same rows the paper reports").
* :mod:`repro.util.ascii_plot` — terminal line/bar plots so figure shapes
  can be eyeballed without matplotlib.
* :mod:`repro.util.prng` — seeded random-stream construction, so every
  simulated experiment is reproducible.
* :mod:`repro.util.validation` — argument checking helpers with consistent
  error messages.
* :mod:`repro.util.fileio` — atomic write-then-rename for the on-disk
  caches that concurrent threads and processes share.
"""

from repro.util.units import (
    KiB,
    MiB,
    GiB,
    TiB,
    KB,
    MB,
    GB,
    NS_PER_S,
    US_PER_S,
    MS_PER_S,
    CACHE_LINE,
    parse_size,
    format_size,
    bytes_to_gib,
    gib_to_bytes,
    bytes_to_gb,
    gb_to_bytes,
)
from repro.util.tables import TextTable
from repro.util.ascii_plot import AsciiChart
from repro.util.prng import make_rng, derive_seed
from repro.util.validation import (
    check_positive,
    check_non_negative,
    check_in,
    check_type,
    check_fraction,
)

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "TiB",
    "KB",
    "MB",
    "GB",
    "NS_PER_S",
    "US_PER_S",
    "MS_PER_S",
    "CACHE_LINE",
    "parse_size",
    "format_size",
    "bytes_to_gib",
    "gib_to_bytes",
    "bytes_to_gb",
    "gb_to_bytes",
    "TextTable",
    "AsciiChart",
    "make_rng",
    "derive_seed",
    "check_positive",
    "check_non_negative",
    "check_in",
    "check_type",
    "check_fraction",
]

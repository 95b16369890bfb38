"""Reference implementations that only tests compare against.

Each oracle is the slow, obviously-correct form of a path the library
computes faster; the tests pin the fast path bit-identical to it.
"""

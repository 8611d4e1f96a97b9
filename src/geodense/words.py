"""Words in a free group on named generators.

A word is a plain string over the letters ``a, b, c, ...`` with uppercase
meaning the inverse generator.  Composition order matches function
composition: the word ``"xy"`` acts as x applied after y, so its matrix is
X @ Y.
"""

from __future__ import annotations


def inverse_word(word: str) -> str:
    """Inverse of a word: reverse the letters and flip their case."""
    return word[::-1].swapcase()


def free_reduce(word: str) -> str:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[str] = []
    for ch in word:
        if out and out[-1] != ch and out[-1].lower() == ch.lower():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def join_reduced(u: str, v: str) -> str:
    """free_reduce(u + v) for reduced words u and v.

    Only the junction can cancel, so the scan stops at the first pair
    that does not: it costs the letters it cancels, where free_reduce
    rescans both words.
    """
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == v[k].swapcase():
        k += 1
    return u[:len(u) - k] + v[k:]


def cyclic_reduce(word: str) -> str:
    """The word freely reduced, then stripped of inverse end letters:
    conjugate words reduce to rotations of each other."""
    w = free_reduce(word)
    while len(w) > 1 and w[0] == w[-1].swapcase():
        w = w[1:-1]
    return w

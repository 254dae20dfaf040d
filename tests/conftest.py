"""Shared game corpus used across the test modules.

Every fixture returns freshly constructed objects so that tests cannot
leak mutations into each other (the dataclasses are frozen anyway, but
lists of games are rebuilt per test).
"""
from fractions import Fraction

import pytest

from bellpoly import (
    ROTATIONS,
    LinearGame,
    NLCSpec,
    UniqueGame3,
    build_nlc2,
    build_nlcd,
)

F = Fraction


def make_nlc3_game() -> LinearGame:
    """Ternary distributed-sum game on uniform single-trit inputs.

    Win iff a + b == f(x, y) (mod 3) where f(x, y) = 1 exactly when
    x + y == 2 (mod 3).
    """
    q = tuple(tuple(F(1, 9) for _ in range(3)) for _ in range(3))
    f = tuple(tuple(1 if (x + y) % 3 == 2 else 0 for y in range(3))
              for x in range(3))
    return LinearGame(3, 3, 3, q, f)


def make_phi_ex_game() -> LinearGame:
    """d = 4 linear game whose norm bound is tight at 13/14."""
    q56 = ((7, 3, 3, 1), (3, 7, 1, 3), (3, 1, 7, 3), (1, 3, 3, 7))
    f = ((0, 2, 1, 1), (2, 0, 1, 1), (3, 3, 0, 2), (3, 3, 2, 0))
    q = tuple(tuple(F(v, 56) for v in row) for row in q56)
    return LinearGame(4, 4, 4, q, f)


def make_nlc2_and() -> LinearGame:
    return build_nlc2(NLCSpec(2, 2, (0, 0, 0, 1), (F(1, 4),) * 4))


def make_nlc2_xor() -> LinearGame:
    return build_nlc2(NLCSpec(2, 2, (0, 1, 1, 0), (F(1, 4),) * 4))


# (per-dit table, per-dit distribution, expected max correlation, expected
# classical value) for the d = 3 product-form family.
LAMBDA_PROFILES = (
    ((0, 1, 2), (F(1, 3),) * 3, F(1, 3), F(5, 9)),
    ((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)), F(1, 2), F(2, 3)),
    ((0, 0, 1), (F(1, 3),) * 3, F(2, 3), F(7, 9)),
    ((1, 1, 1), (F(1, 2), F(1, 3), F(1, 6)), F(1, 1), F(1, 1)),
)


def make_lambda_games():
    return [(build_nlcd(NLCSpec(3, 2, g, p)), lam, wc)
            for g, p, lam, wc in LAMBDA_PROFILES]


def make_chsh_game(p=(F(1, 4),) * 4) -> LinearGame:
    """Binary two-input parity game; cell (1,1) demands odd parity."""
    q = ((p[0], p[1]), (p[2], p[3]))
    return LinearGame(2, 2, 2, q, ((0, 0), (0, 1)))


def make_unique3_rotation() -> UniqueGame3:
    q = tuple(tuple(F(1, 4) for _ in range(2)) for _ in range(2))
    perms = (("e", "(012)"), ("(021)", "e"))
    return UniqueGame3(2, 2, q, perms)


def make_unique3_mixed() -> UniqueGame3:
    q = tuple(tuple(F(1, 4) for _ in range(2)) for _ in range(2))
    perms = (("e", "(01)"), ("(12)", "(012)"))
    return UniqueGame3(2, 2, q, perms)


def make_unique3_frustrated() -> UniqueGame3:
    """Rotation-only game whose four constraints cannot all hold (ω_c = 3/4)."""
    q = tuple(tuple(F(1, 4) for _ in range(2)) for _ in range(2))
    perms = (("e", "e"), ("e", "(012)"))
    return UniqueGame3(2, 2, q, perms)


@pytest.fixture
def nlc3_game():
    return make_nlc3_game()


@pytest.fixture
def phi_ex_game():
    return make_phi_ex_game()


@pytest.fixture
def nlc2_and():
    return make_nlc2_and()


@pytest.fixture
def nlc2_xor():
    return make_nlc2_xor()


@pytest.fixture
def lambda_games():
    return make_lambda_games()


@pytest.fixture
def chsh_game():
    return make_chsh_game()


@pytest.fixture
def weighted_chsh_game():
    return make_chsh_game((F(9, 20), F(5, 20), F(5, 20), F(1, 20)))


@pytest.fixture
def unique3_rotation():
    return make_unique3_rotation()


@pytest.fixture
def unique3_mixed():
    return make_unique3_mixed()


@pytest.fixture
def unique3_frustrated():
    return make_unique3_frustrated()


def rotation_game_to_linear(g: UniqueGame3) -> LinearGame:
    """Rewrite a rotations-only unique game as a linear game by relabeling
    Bob's outputs b -> -b mod 3; all game values are relabeling-invariant.
    A reference for the unique-game bound."""
    f = [[0] * g.mb for _ in range(g.ma)]
    for x in range(g.ma):
        for y in range(g.mb):
            name = g.perms[x][y]
            if name not in ROTATIONS:
                raise ValueError("game has reflection cells; no linear rewrite")
            # win b = a + c  <=>  a + (-b) = -c
            f[x][y] = (-ROTATIONS[name]) % 3
    return LinearGame(3, g.ma, g.mb, g.q, tuple(map(tuple, f)))


def make_corpus():
    """Every game exercised anywhere in the suite, for global sweeps."""
    games = [
        make_nlc3_game(),
        make_phi_ex_game(),
        make_nlc2_and(),
        make_nlc2_xor(),
        make_chsh_game(),
        make_chsh_game((F(9, 20), F(5, 20), F(5, 20), F(1, 20))),
        make_unique3_rotation(),
        make_unique3_mixed(),
        make_unique3_frustrated(),
    ]
    games.extend(g for g, _, _ in make_lambda_games())
    return games


@pytest.fixture
def corpus():
    return make_corpus()

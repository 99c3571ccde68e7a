import pytest

from oracles import walk_min_size


@pytest.fixture(scope="session")
def size_table():
    """(n, k) -> (size, sign) for every k at every modulus up to 200.

    Shared by the divisibility, bound and sign-law sweeps so the scan
    runs once per session. It comes from the nested-list walk
    (oracles.walk_min_size), not from the package, so the sweeps that
    compare the package's CRT composition against it stay independent.
    """
    table = {}
    for n in range(2, 201):
        for k in range(n):
            table[(n, k)] = walk_min_size(n, k)
    return table

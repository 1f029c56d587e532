"""The report writer: json.dumps(indent=2, sort_keys=True, allow_nan=False) text from one template."""

import json
import random

import numpy as np
import pytest

from qlorentz.jsontext import json_text


def random_json_tree(rng: random.Random, depth: int = 0):
    """A random tree of dicts and lists with the leaves that JSON writers get wrong."""
    floats = [-0.0, 0.0, 5e-324, 2.5e-310, 1e308, -1e308, 0.1, 1.0, 2.0 ** 60, 1e16,
              rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)]
    leaves = floats + [0, -7, 2 ** 64, -(10 ** 40), True, False, None,
                       "", "%", "%s %r %% 100%", '"q"', "back\\slash", "c\x00\x1f\t\n\x7f",
                       "ünïcödé ✓ 𝄞", "ü%"]
    kind = rng.random() if depth < 4 else 0.0
    if kind < 0.3:
        return rng.choice(leaves)
    keys = ["a", "b", "%", "%s", "é", "k\"q", "z\\", "trial", "", "\x01"]
    if kind < 0.45:
        return {k: random_json_tree(rng, depth + 1) for k in rng.sample(keys, rng.randint(0, 4))}
    if kind < 0.6:
        items = [random_json_tree(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.2 else items
    if kind < 0.75:
        # a nested float list, sometimes with a leaf of another type or one short row
        shape = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        flat = [rng.choice(floats) for _ in range(int(np.prod(shape)))]
        if rng.random() < 0.2:
            flat[rng.randrange(len(flat))] = rng.choice(leaves)
        for size in reversed(shape[1:]):
            flat = [flat[i:i + size] for i in range(0, len(flat), size)]
        if rng.random() < 0.2 and isinstance(flat[-1], list):
            flat[-1] = flat[-1][:-1]
        return flat
    # records sharing one key set, with columns of one type or mixed types
    columns = rng.sample(keys, rng.randint(1, 4))
    pools = [floats, [0, 3, 2 ** 70], floats + [5, -1], leaves]
    col_pools = {k: rng.choice(pools) for k in columns}
    rows = [{k: rng.choice(col_pools[k]) for k in columns} for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.2:
        rows[-1] = dict(rows[-1], extra=[1.5])
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_matches_the_stdlib_encoder(seed):
    rng = random.Random(seed)
    for _ in range(60):
        tree = {"trials": random_json_tree(rng, 1), "other": random_json_tree(rng, 1)}
        assert json_text(tree) == json.dumps(tree, indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "place",
    [
        lambda x: {"value": x},
        lambda x: {"matrix": [[0.5, 0.25], [x, 1.0]]},
        lambda x: {"trials": [{"trial": 0, "d": 0.5}, {"trial": 1, "d": x}]},
        lambda x: {"trials": [{"trial": 0, "d": "s"}, {"trial": 1, "d": x}]},
        lambda x: {"row": [1, 2 ** 1100, x]},
    ],
    ids=["scalar", "float-list", "float-column", "mixed-column", "big-int-list"],
)
def test_rejects_non_finite_floats(bad, place):
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text(place(bad))

"""Reference kernel that scales benchmark times to a fixed machine speed.

Other tenants of a shared machine slow all code on it, by up to 1.7x over
spans of seconds, so the median report time of one 20-s run differs from the
next by 12-23% (IQR/median), and a median of 15 cold starts by about 13%. A
fixed kernel is timed right before every report and every cold start, and
each time is multiplied by KERNEL_REF_S / kernel time. The kernel mixes the
four kinds of work the workloads do: dense numpy, interpreter loops, many
numpy calls on 2x2 arrays, and JSON text of [re, im] pairs. Each kind alone
tracked the slowdown of some workloads and not others; on 6-minute traces on a
shared 2-vCPU x86-64 VM the mix cut the spread of 20-s report medians from
0.20-0.23 to 0.04 or less, and that of cold-start medians from 0.13 to 0.07. Scaled times are seconds on a machine that
runs the kernel in KERNEL_REF_S, about its fastest there. The kernel calls no
qlorentz code, so a change that makes the program 10% faster makes the scaled
times 10% shorter.
"""

from __future__ import annotations

import json
import time

import numpy as np

KERNEL_REF_S = 0.0075
_MATRIX = np.random.default_rng(0).standard_normal((64, 64)) * (1.0 + 1.0j)
_PAIRS = [[i / 7.0, j / 3.0] for i in range(40) for j in range(8)]


def kernel_seconds() -> float:
    start = time.perf_counter()
    for _ in range(20):
        np.einsum("ij,ji->", _MATRIX, _MATRIX @ _MATRIX)
    total = 0
    for i in range(30_000):
        total += i * i % 7
    for i in range(400):
        a = np.array([[1.0, 0.5j], [-0.5j, float(i)]])
        np.trace(a @ a.conj().T)
    for _ in range(4):
        json.loads(json.dumps(_PAIRS))
    return time.perf_counter() - start


def scale(seconds: float, kernel: float) -> float:
    """``seconds`` measured next to a kernel run of ``kernel`` seconds, at reference speed."""
    return seconds * KERNEL_REF_S / kernel

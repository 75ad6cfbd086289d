"""Stable numeric features of an instance, for the learned selector.

The feature vector is the bridge between the canonical-request world (the
service's content-addressed fingerprints) and the learned algorithm
selector (:mod:`busytime.portfolio.selector`): every quantity here is
invariant under the two symmetries canonicalization quotients out — job
relabeling and global time translation — so an instance and its canonical
form produce the *identical* vector, and features computed offline from
stored canonical reports apply verbatim to live traffic.

The vector is versioned (:data:`FEATURE_VERSION`).  A trained selector
records the version it was fit against and refuses to score vectors from
another one, so a feature-set change can never silently mis-rank; the
version also travels in the fingerprint-adjacent metadata document
(:func:`features_document`) stored next to training samples.

Features deliberately stick to O(n log n) structural quantities the
:class:`~busytime.core.instance.Instance` already memoizes (properness,
clique number) plus cheap aggregates (the positive-length ratio, means,
peaks) — extraction must stay
negligible next to even the fastest candidate algorithm, or the selector
costs more than a mis-ranked pick.
"""

from __future__ import annotations

from math import log1p
from typing import Dict, List, Tuple

from ..core.instance import Instance, connected_components

__all__ = ["FEATURE_VERSION", "feature_names", "extract_features", "features_document"]

#: Version of the feature vector below.  Bump whenever a feature is added,
#: removed, reordered or redefined: selectors trained against another
#: version must fall back to the static ranking rather than score garbage.
#: Version 2 takes ``length_ratio`` over positive lengths only; version 1
#: was ``inf`` on any instance with a zero-length job.
FEATURE_VERSION = 2

_FEATURE_NAMES: Tuple[str, ...] = (
    "n",
    "log1p_n",
    "g",
    "span",
    "total_length",
    "mean_length",
    "length_ratio",
    "density",
    "clique_number",
    "clique_over_g",
    "components",
    "is_proper",
    "is_clique",
    "is_laminar",
    "has_demands",
    "max_demand",
    "mean_demand",
    "peak_over_g",
)


def feature_names() -> Tuple[str, ...]:
    """The names of the features, in vector order (frozen per version)."""
    return _FEATURE_NAMES


def extract_features(instance: Instance) -> Tuple[float, ...]:
    """The version-:data:`FEATURE_VERSION` feature vector of ``instance``.

    Every entry is a finite float, invariant under job relabeling and
    global time translation (the canonicalization symmetries), so
    ``extract_features(inst) == extract_features(canonicalize(inst).instance)``
    bit for bit.  The empty instance maps to the all-zero vector (with
    ``g`` kept, so degenerate traffic still separates by capacity).
    """
    n = instance.n
    g = instance.g
    if n == 0:
        values = dict.fromkeys(_FEATURE_NAMES, 0.0)
        values["g"] = float(g)
        return tuple(values[name] for name in _FEATURE_NAMES)
    span = instance.span
    total = instance.total_length
    # span >= min job length > 0 for non-empty instances, but guard the
    # ratio anyway: features must be finite for the regressors.
    density = total / (g * span) if span > 0 else 0.0
    # Zero-length jobs would make the plain length ratio infinite, and an
    # infinite feature turns every cost head's prediction infinite.
    positive = [j.length for j in instance.jobs if j.length > 0]
    values = {
        "n": float(n),
        "log1p_n": log1p(float(n)),
        "g": float(g),
        "span": span,
        "total_length": total,
        "mean_length": total / n,
        "length_ratio": max(positive) / min(positive) if positive else 1.0,
        "density": density,
        "clique_number": float(instance.clique_number),
        "clique_over_g": instance.clique_number / g,
        "components": float(len(connected_components(instance))),
        "is_proper": 1.0 if instance.is_proper() else 0.0,
        "is_clique": 1.0 if instance.is_clique() else 0.0,
        "is_laminar": 1.0 if instance.is_laminar() else 0.0,
        "has_demands": 1.0 if instance.has_demands else 0.0,
        "max_demand": float(instance.max_demand),
        "mean_demand": (
            instance.total_demand_length / total if total > 0 else 0.0
        ),
        "peak_over_g": instance.peak_demand / g,
    }
    return tuple(values[name] for name in _FEATURE_NAMES)


def features_document(instance: Instance) -> Dict[str, object]:
    """The fingerprint-adjacent metadata document for ``instance``.

    ``{"version", "names", "values"}`` — what the trainer stores next to a
    sample (and what debugging tools print): self-describing, so a reader
    holding only the document can tell which feature set produced it.
    """
    return {
        "version": FEATURE_VERSION,
        "names": list(_FEATURE_NAMES),
        "values": [float(v) for v in extract_features(instance)],
    }

"""Per-layer timing for the traced run, from outside the program.

``Tracer.install`` replaces module-level names of ``hafformer`` with timing
wrappers and ``uninstall`` puts the originals back:

- ``Model.forward``: forward time and the nodes it creates;
- ``model.conv1d``: the first call of a forward is the projection, later
  calls are merges;
- ``mixers.token_mix`` and ``mixers.channel_mix``;
- ``Tensor.backward``, ``training.adamw_step``, ``data.load_embedding`` and
  the ``pad_or_truncate`` that ``training`` calls.

Backward time is split by tagging: while a component's wrapper is on the
stack, every graph node created gets its VJP closures wrapped in a timer
that charges that component; nodes made outside any component charge
``rest``. ``walk`` is the backward time that no VJP accounts for.
"""

from __future__ import annotations

import time
from collections import defaultdict

import hafformer as h

# traced component -> suffix of its entries in ``analysis.count_costs``
COMPONENTS = ("projection", "merge", "token", "channel")


class Tracer:
    def __init__(self):
        self.forward_s = defaultdict(float)  # component or "total" -> seconds in forward
        self.vjp_s = defaultdict(float)  # component or "rest" -> seconds in VJP closures
        self.seconds = defaultdict(float)  # wrapped call -> seconds inside it
        self.counts = defaultdict(int)
        self._stack: list[str] = []
        self._in_forward = 0
        self._convs_this_forward = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name, wrapper):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def install(self):
        self._patch(h.model.Model, "forward", self._wrap_forward)
        self._patch(h.model, "conv1d", self._wrap_conv)
        self._patch(h.mixers, "token_mix", lambda f: self._wrap_component(f, "token"))
        self._patch(h.mixers, "channel_mix", lambda f: self._wrap_component(f, "channel"))
        self._patch(h.tensor.Tensor, "__init__", self._wrap_init)
        self._patch(h.tensor.Tensor, "backward", lambda f: self._wrap_timer(f, "backward"))
        self._patch(h.training, "adamw_step", lambda f: self._wrap_timer(f, "adamw_step"))
        self._patch(h.data, "load_embedding", lambda f: self._wrap_timer(f, "load_embedding"))
        self._patch(h.training, "pad_or_truncate", lambda f: self._wrap_timer(f, "pad_or_truncate"))
        return self

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- wrappers -------------------------------------------------------------

    def _wrap_timer(self, fn, key):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - t0
                self.counts[key] += 1

        return timed

    def _wrap_forward(self, fn):
        def forward(*args, **kwargs):
            self._in_forward += 1
            self._convs_this_forward = 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.forward_s["total"] += time.perf_counter() - t0
                self.counts["forward"] += 1
                self._in_forward -= 1

        return forward

    def _wrap_conv(self, fn):
        def conv1d(*args, **kwargs):
            tag = "projection" if self._convs_this_forward == 0 else "merge"
            self._convs_this_forward += 1
            return self._run_component(fn, tag, args, kwargs)

        return conv1d

    def _wrap_component(self, fn, tag):
        def component(*args, **kwargs):
            return self._run_component(fn, tag, args, kwargs)

        return component

    def _run_component(self, fn, tag, args, kwargs):
        self._stack.append(tag)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.forward_s[tag] += time.perf_counter() - t0
            self._stack.pop()

    def _wrap_init(self, fn):
        def __init__(node, *args, **kwargs):
            fn(node, *args, **kwargs)
            if self._in_forward:
                self.counts["nodes"] += 1
            if node.vjps:
                tag = self._stack[-1] if self._stack else "rest"
                node.vjps = tuple(self._timed_vjp(vjp, tag) for vjp in node.vjps)

        return __init__

    def _timed_vjp(self, vjp, tag):
        totals = self.vjp_s

        def timed(g):
            t0 = time.perf_counter()
            out = vjp(g)
            totals[tag] += time.perf_counter() - t0
            return out

        return timed

    # -- results ----------------------------------------------------------------

    def forward_split_ms(self, samples: int) -> dict[str, float]:
        """Per-sample forward ms of each component plus ``rest``; they sum to ``total``."""
        n = samples
        total = self.forward_s["total"]
        out = {tag: 1e3 * self.forward_s[tag] / n for tag in COMPONENTS}
        out["rest"] = 1e3 * (total - sum(self.forward_s[tag] for tag in COMPONENTS)) / n
        out["total"] = 1e3 * total / n
        return out

    def backward_split_ms(self, samples: int) -> dict[str, float]:
        """Per-sample backward ms inside each component's VJPs, plus ``rest`` and ``walk``;
        they sum to ``total``. All zero when nothing ran backward."""
        n = samples
        if self.counts["backward"] == 0:
            return dict.fromkeys((*COMPONENTS, "rest", "walk", "total"), 0.0)
        out = {tag: 1e3 * self.vjp_s[tag] / n for tag in (*COMPONENTS, "rest")}
        out["walk"] = 1e3 * (self.seconds["backward"] - sum(self.vjp_s.values())) / n
        out["total"] = 1e3 * self.seconds["backward"] / n
        return out

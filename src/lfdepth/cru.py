"""Context reasoning block: residual skip + dilated pyramid + graph branches.

The block sees a feature map [S, C, H, W] and returns the same shape.  Three
things happen in parallel:

  * the identity short-connection,
  * a cross-channel 1x1 conv followed by three dilated 3x3 convs
    (rates DILATION_RATES = 3, 5, 7) whose outputs concatenate and fuse
    back to C,
  * GRAPH_BRANCHES = 3 graph branches that project pixels onto N_i nodes
    (N_i = floor(W*H / (4 * 2^(i-1))), at least 1), mix node features as
    M = (V - A V) W with dense trainable A and W over max(1, C // 4)
    channels, and re-project; their sum with the input passes through a
    trailing 3x3 conv.

The configuration only chooses the channel count and which of the two
learned branches is built; everything else above is fixed.

Dilated-pyramid convs carry ReLU; the graph branches and both fusion convs
are linear so that zeroing the last fusion conv collapses the whole block to
an exact identity.  Node-dependent parameters (the pixel-to-node projection
and the node mixing matrix) are built lazily per distinct spatial size and
then live in the parameter tree like any other entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .ops import Conv2d, concat, kaiming_normal, relu
from .params import ModuleParams
from .tensor import Tensor, matmul, reshape, transpose


DILATION_RATES = (3, 5, 7)
GRAPH_BRANCHES = 3
NODE_DIVISOR_BASE = 4


def node_count(w: int, h: int, i: int) -> int:
    """Nodes for graph branch i at spatial size (h, w): floor(w*h/(4*2^(i-1))), >= 1."""
    if i < 1:
        raise UsageError(f"branch index must be >= 1, got {i}")
    if w < 1 or h < 1:
        raise UsageError(f"spatial extents must be >= 1, got {w}x{h}")
    return max(1, (w * h) // (NODE_DIVISOR_BASE * 2 ** (i - 1)))


@dataclass(frozen=True)
class CruConfig:
    channels: int
    use_dilated: bool = True       # ablation switches for the two learned branches
    use_graph: bool = True

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.use_dilated and self.channels % 2:
            raise ConfigError(f"dilated branch needs even channels, got {self.channels}")
        if not (self.use_dilated or self.use_graph):
            raise ConfigError("at least one of the dilated/graph branches must be enabled")

    @property
    def branch_channels(self) -> int:
        return max(1, self.channels // 4)


class GraphBranch:
    """One projection / reasoning / re-projection pipeline (branch index i)."""

    def __init__(self, params: ModuleParams, name: str, config: CruConfig, i: int,
                 rng: np.random.Generator):
        self.config = config
        self.index = i
        self.scope = params.child(name)
        self.rng = rng
        C, Ci = config.channels, config.branch_channels
        self.psi = Conv2d(self.scope, "psi", C, Ci, 1, rng)
        # channel mixing W_i is bias-free so a zero matrix annihilates M
        self.channel_mix = self.scope.add(
            "channel_mix", kaiming_normal(rng, (Ci, Ci), Ci)
        )
        self.expand = Conv2d(self.scope, "expand", Ci, C, 1, rng)
        # the branch output is cubic in the feature scale (B enters twice,
        # psi(x) once); a small expansion keeps it from drowning the block's
        # residual path early in training
        self.expand.weight.data *= 0.1
        self._lazy: dict[tuple[int, int], tuple[Conv2d, Tensor]] = {}

    def nodes(self, h: int, w: int) -> int:
        return node_count(w, h, self.index)

    def build(self, h: int, w: int) -> tuple[Conv2d, Tensor]:
        """Materialize phi and the node-mixing matrix for one spatial size."""
        key = (h, w)
        if key not in self._lazy:
            n = self.nodes(h, w)
            phi = Conv2d(self.scope, f"phi_{h}x{w}", self.config.channels, n, 1, self.rng)
            # The assignment maps B enter the output twice (projection sums
            # over H*W pixels, re-projection over n nodes), so at standard
            # init the branch output grows like sqrt(n*H*W) and swamps the
            # residual path.  Scaling phi by (n*H*W)^(-1/4) puts the branch
            # at O(1) where gradient descent can balance it.
            phi.weight.data *= float(n * h * w) ** -0.25
            node_mix = self.scope.add(
                f"node_mix_{h}x{w}", kaiming_normal(self.rng, (n, n), n)
            )
            self._lazy[key] = (phi, node_mix)
        return self._lazy[key]

    def project(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """x [S,C,H,W] -> (V [S,N,Ci], B [S,N,HW])."""
        s, _, h, w = x.shape
        phi, _ = self.build(h, w)
        n = self.nodes(h, w)
        b = reshape(phi(x), (s, n, h * w))
        psi_x = reshape(self.psi(x), (s, self.config.branch_channels, h * w))
        v = matmul(b, transpose(psi_x, (0, 2, 1)))
        return v, b

    def reason(self, v: Tensor, h: int, w: int) -> Tensor:
        """M = (V - A V) W with A, W dense and bias-free."""
        _, node_mix = self.build(h, w)
        av = matmul(node_mix, v)
        return matmul(v - av, self.channel_mix)

    def reproject(self, m: Tensor, b: Tensor, h: int, w: int) -> Tensor:
        """(B^T M) back to pixels, then 1x1 expansion to C channels."""
        s = m.shape[0]
        y = matmul(transpose(b, (0, 2, 1)), m)              # [S, HW, Ci]
        y = reshape(transpose(y, (0, 2, 1)), (s, self.config.branch_channels, h, w))
        return self.expand(y)

    def __call__(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape
        v, b = self.project(x)
        m = self.reason(v, h, w)
        return self.reproject(m, b, h, w)


class Cru:
    """The full three-branch block; call it on [S, C, H, W]."""

    def __init__(self, params: ModuleParams, name: str, config: CruConfig,
                 rng: np.random.Generator):
        self.config = config
        scope = params.child(name)
        C = config.channels

        if config.use_dilated:
            half = C // 2
            md = scope.child("md")
            self.cross = Conv2d(md, "cross", C, C, 1, rng)
            self.dilated = [
                Conv2d(md, f"rate{r}", C, half, 3, rng, dilation=r)
                for r in DILATION_RATES
            ]
            self.md_fuse = Conv2d(md, "fuse", half * len(DILATION_RATES), C, 1, rng)

        if config.use_graph:
            mg = scope.child("mg")
            self.branches = [
                GraphBranch(mg, f"branch{i}", config, i, rng)
                for i in range(1, GRAPH_BRANCHES + 1)
            ]
            self.trail = Conv2d(mg, "trail", C, C, 3, rng)

        width = C * (int(config.use_dilated) + int(config.use_graph))
        self.fuse = Conv2d(scope, "fuse", width, C, 1, rng)

    def multi_dilated(self, x: Tensor) -> Tensor:
        if not self.config.use_dilated:
            raise UsageError("dilated branch is disabled in this configuration")
        h = relu(self.cross(x))
        pyramids = [relu(conv(h)) for conv in self.dilated]
        return self.md_fuse(concat(pyramids, axis=1))

    def multi_graph(self, x: Tensor) -> Tensor:
        if not self.config.use_graph:
            raise UsageError("graph branch is disabled in this configuration")
        out = x
        for branch in self.branches:
            out = out + branch(x)
        return self.trail(out)

    def warmup(self, h: int, w: int) -> None:
        """Materialize all lazily built parameters for one spatial size."""
        if self.config.use_graph:
            for branch in self.branches:
                branch.build(h, w)

    def __call__(self, x: Tensor) -> Tensor:
        parts = []
        if self.config.use_dilated:
            parts.append(self.multi_dilated(x))
        if self.config.use_graph:
            parts.append(self.multi_graph(x))
        mixed = parts[0] if len(parts) == 1 else concat(parts, axis=1)
        return x + self.fuse(mixed)


def zero_fuse(block: Cru) -> None:
    """Zero the final fusion conv; the block becomes an exact identity."""
    block.fuse.weight.data[...] = 0.0
    block.fuse.bias.data[...] = 0.0

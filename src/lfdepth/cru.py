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

The constructor only chooses the channel count, the feature size the block
serves and which of the two learned branches is built; everything else
above is fixed.

Dilated-pyramid convs (the cross 1x1 conv and the three dilated ones) carry
a ReLU fused into the conv (``Conv2d(..., relu=True)``); the graph branches
and both fusion convs are linear so that zeroing the last fusion conv
collapses the whole block to an exact identity.  Node-dependent parameters
(the pixel-to-node projection and the node mixing matrix) are shaped by the
feature size, so a block serves the one (H, W) it was built for, and any
other size is a ShapeError.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError, UsageError
from .ops import Conv2d, concat, kaiming_normal
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


class GraphBranch:
    """One projection / reasoning / re-projection pipeline (branch index i).

    Built in two steps: the constructor registers the parameters whose shape
    is set by the channel count, ``add_nodes`` the pixel-to-node projection
    phi and the node mixing matrix of the one (H, W) the branch serves.  Cru
    runs each ``add_nodes`` after all its other parameters, the order in
    which its checkpoints draw from the init RNG and list their entries.
    """

    def __init__(self, params: ModuleParams, name: str, channels: int, i: int,
                 rng: np.random.Generator):
        self.index = i
        self.scope = params.child(name)
        self.channels = channels
        self.branch_channels = Ci = max(1, channels // 4)
        self.psi = Conv2d(self.scope, "psi", channels, Ci, 1, rng)
        # channel mixing W_i is bias-free so a zero matrix annihilates M
        self.channel_mix = self.scope.add(
            "channel_mix", kaiming_normal(rng, (Ci, Ci), Ci)
        )
        self.expand = Conv2d(self.scope, "expand", Ci, channels, 1, rng)
        # the branch output is cubic in the feature scale (B enters twice,
        # psi(x) once); a small expansion keeps it from drowning the block's
        # residual path early in training (a blank placeholder is zero already)
        if rng is not None:
            self.expand.weight.data *= 0.1

    def add_nodes(self, size: tuple[int, int], rng: np.random.Generator) -> None:
        """Register phi and the node-mixing matrix for features of ``size`` = (H, W)."""
        self.size = tuple(size)
        h, w = self.size
        n = self.n_nodes = node_count(w, h, self.index)
        self.phi = Conv2d(self.scope, f"phi_{h}x{w}", self.channels, n, 1, rng)
        # The assignment maps B enter the output twice (projection sums
        # over H*W pixels, re-projection over n nodes), so at standard
        # init the branch output grows like sqrt(n*H*W) and swamps the
        # residual path.  Scaling phi by (n*H*W)^(-1/4) puts the branch
        # at O(1) where gradient descent can balance it.
        if rng is not None:
            self.phi.weight.data *= float(n * h * w) ** -0.25
        self.node_mix = self.scope.add(f"node_mix_{h}x{w}", kaiming_normal(rng, (n, n), n))

    def project(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """x [S,C,H,W] -> (V [S,N,Ci], B [S,N,HW])."""
        s, _, h, w = x.shape
        _check_size(x, self.size)
        b = reshape(self.phi(x), (s, self.n_nodes, h * w))
        psi_x = reshape(self.psi(x), (s, self.branch_channels, h * w))
        v = matmul(b, transpose(psi_x, (0, 2, 1)))
        return v, b

    def reason(self, v: Tensor) -> Tensor:
        """M = (V - A V) W with A, W dense and bias-free."""
        av = matmul(self.node_mix, v)
        return matmul(v - av, self.channel_mix)

    def reproject(self, m: Tensor, b: Tensor) -> Tensor:
        """(B^T M) back to pixels, then 1x1 expansion to C channels."""
        s = m.shape[0]
        y = matmul(transpose(b, (0, 2, 1)), m)              # [S, HW, Ci]
        y = reshape(transpose(y, (0, 2, 1)), (s, self.branch_channels, *self.size))
        return self.expand(y)

    def __call__(self, x: Tensor) -> Tensor:
        v, b = self.project(x)
        return self.reproject(self.reason(v), b)


class Cru:
    """The full three-branch block for features of ``size`` = (H, W); call it on [S, C, H, W].

    ``dilated`` and ``graph`` are the ablation switches for the two learned
    branches; at least one must be on.
    """

    def __init__(self, params: ModuleParams, name: str, channels: int, size: tuple[int, int],
                 rng: np.random.Generator, *, dilated: bool = True, graph: bool = True):
        if channels < 1:
            raise ConfigError(f"channels must be >= 1, got {channels}")
        if dilated and channels % 2:
            raise ConfigError(f"dilated branch needs even channels, got {channels}")
        if not (dilated or graph):
            raise ConfigError("at least one of the dilated/graph branches must be enabled")
        self.size = tuple(size)
        scope = params.child(name)
        C = channels

        self.dilated: list[Conv2d] = []
        if dilated:
            half = C // 2
            md = scope.child("md")
            self.cross = Conv2d(md, "cross", C, C, 1, rng, relu=True)
            self.dilated = [
                Conv2d(md, f"rate{r}", C, half, 3, rng, dilation=r, relu=True)
                for r in DILATION_RATES
            ]
            self.md_fuse = Conv2d(md, "fuse", half * len(DILATION_RATES), C, 1, rng)

        self.branches: list[GraphBranch] = []
        if graph:
            mg = scope.child("mg")
            self.branches = [
                GraphBranch(mg, f"branch{i}", C, i, rng)
                for i in range(1, GRAPH_BRANCHES + 1)
            ]
            self.trail = Conv2d(mg, "trail", C, C, 3, rng)

        self.fuse = Conv2d(scope, "fuse", C * (int(dilated) + int(graph)), C, 1, rng)
        for branch in self.branches:
            branch.add_nodes(self.size, rng)

    def multi_dilated(self, x: Tensor) -> Tensor:
        if not self.dilated:
            raise UsageError("dilated branch is disabled in this configuration")
        h = self.cross(x)
        pyramids = [conv(h) for conv in self.dilated]
        return self.md_fuse(concat(pyramids, axis=1))

    def multi_graph(self, x: Tensor) -> Tensor:
        if not self.branches:
            raise UsageError("graph branch is disabled in this configuration")
        out = x
        for branch in self.branches:
            out = out + branch(x)
        return self.trail(out)

    def __call__(self, x: Tensor) -> Tensor:
        _check_size(x, self.size)
        parts = []
        if self.dilated:
            parts.append(self.multi_dilated(x))
        if self.branches:
            parts.append(self.multi_graph(x))
        mixed = parts[0] if len(parts) == 1 else concat(parts, axis=1)
        return x + self.fuse(mixed)


def _check_size(x: Tensor, size: tuple[int, int]) -> None:
    if tuple(x.shape[2:]) != size:
        raise ShapeError(f"block serves features of size {size}, got {tuple(x.shape[2:])}")


def zero_fuse(block: Cru) -> None:
    """Zero the final fusion conv; the block becomes an exact identity."""
    block.fuse.weight.data[...] = 0.0
    block.fuse.bias.data[...] = 0.0

"""Independent slow-path oracles used across the test suite.

Everything here evaluates the layer equations by explicit per-edge matrix
construction (``assemble_kernel`` + dense representation matrices), looping
over vertices in Python.  None of it shares code with the factorised
``rho_out(theta) K(0) rho_in(g - theta)`` message path inside the layers.
``scatter_add`` is the ``np.add.at`` reference for the tape's sparse
incidence scatters, and ``reference_rings`` the dict walk that the array
construction of ``Mesh`` neighbor rings is tested against.
"""

import numpy as np

from meshnet.errors import NonManifoldVertexError
from meshnet.mesh import Mesh, generate_grid_patch, generate_icosphere
from meshnet.representations import assemble_kernel, rep_block_diag


def regauge_coords(values, ftype, angles):
    """Coordinate pushforward under a per-vertex gauge change."""
    out = np.empty_like(values)
    for p in range(values.shape[0]):
        out[p] = rep_block_diag(ftype, -angles[p]) @ values[p]
    return out


def scatter_add(values, idx, n):
    """``np.add.at`` reference for the tape's scatters: row k into row idx[k]."""
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, idx, values)
    return out


def reference_rings(faces, n_vertices):
    """Neighbor ring of every vertex, walked face fan by face fan in dicts.

    At vertex p, face (p, a, b) contributes the oriented link edge a -> b.
    An open fan starts at its head, a closed one at its smallest neighbor;
    a vertex whose link edges do not form one chain or one cycle raises
    :class:`NonManifoldVertexError`, the first such vertex first.
    """
    succ = [dict() for _ in range(n_vertices)]
    for a, b, c in np.asarray(faces).tolist():
        for p, x, y in ((a, b, c), (b, c, a), (c, a, b)):
            succ[p][x] = y
    rings = []
    for p, nxt in enumerate(succ):
        heads = set(nxt).difference(nxt.values())
        ring = [min(heads or nxt)] if nxt else []
        while ring and ring[-1] in nxt and nxt[ring[-1]] != ring[0]:
            ring.append(nxt[ring[-1]])
        if len(ring) != len(nxt) + len(heads):
            raise NonManifoldVertexError(p)
        rings.append(np.array(ring, dtype=np.int64))
    return rings


def random_test_mesh(rng, max_subdivisions=1):
    """Bumpy icosphere or noisy grid patch, randomized."""
    if rng.random() < 0.5:
        base = generate_icosphere(int(rng.integers(0, max_subdivisions + 1)))
        radii = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, base.n_vertices)
        return base.with_vertices(base.vertices * radii[:, None])
    rows = int(rng.integers(3, 7))
    cols = int(rng.integers(3, 7))
    return generate_grid_patch(rows, cols, 0.25, int(rng.integers(0, 2**31)))


def _edge_data(mesh: Mesh, td):
    for p in range(mesh.n_vertices):
        sl = mesh.edge_slice(p)
        yield p, mesh.edge_src[sl], td.theta[sl], td.transport[sl]


def dense_gem_forward(layer, f, mesh, td):
    """Per-vertex explicit evaluation of the convolution update."""
    kself = layer.self_kernel.as_domain_kernel()
    kneigh = layer.neigh_kernel.as_domain_kernel()
    tin = layer.in_type
    Ks = assemble_kernel(kself)
    out = np.zeros((mesh.n_vertices, layer.out_type.dim))
    for p, qs, thetas, gs in _edge_data(mesh, td):
        acc = Ks @ f[p]
        for q, th, g in zip(qs, thetas, gs):
            acc = acc + assemble_kernel(kneigh, th) @ rep_block_diag(tin, g) @ f[q]
        out[p] = acc
    return _dense_bias(layer, out)


def _dense_bias(layer, out):
    bias = layer.bias
    if bias.mode == "none":
        return out
    if bias.mode == "additive":
        return out + bias.b.value
    t = layer.out_type
    res = np.empty_like(out)
    for p in range(out.shape[0]):
        row = np.zeros(t.dim)
        for ci, n in enumerate(t.orders):
            off, d = t.offsets[ci], t.component_dims[ci]
            b = bias.b.value[ci]
            if n == 0:
                row[off] = out[p, off] + b
            else:
                c, s = np.cos(n * b), np.sin(n * b)
                row[off] = c * out[p, off] - s * out[p, off + 1]
                row[off + 1] = s * out[p, off] + c * out[p, off + 1]
        res[p] = row
    return res


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def dense_eman_forward(layer, f, mesh, td):
    """Line-by-line attention update with explicit matrices."""
    kq = assemble_kernel(layer.query_kernel.as_domain_kernel())
    kkey = layer.key_kernel.as_domain_kernel()
    kval = layer.value_kernel.as_domain_kernel()
    tin = layer.in_type
    catt = layer.att_type.dim
    out = np.zeros((mesh.n_vertices, layer.out_type.dim))
    for p, qs, thetas, gs in _edge_data(mesh, td):
        Q = kq @ f[p]
        Kcols, Vcols = [], []
        for q, th, g in zip(qs, thetas, gs):
            transported = rep_block_diag(tin, g) @ f[q]
            Kcols.append(assemble_kernel(kkey, th) @ transported)
            Vcols.append(assemble_kernel(kval, th) @ transported)
        K = np.stack(Kcols, axis=1)
        V = np.stack(Vcols, axis=1)
        alpha = _softmax(K.T @ Q / np.sqrt(catt))
        out[p] = len(qs) * (V @ alpha)
    return _dense_bias(layer, out)


def dense_eman_self_forward(layer, f, mesh, td):
    """Attention update with the self column and (N_p + 1) normalizer."""
    kq = assemble_kernel(layer.query_kernel.as_domain_kernel())
    kkey = layer.key_kernel.as_domain_kernel()
    kval = layer.value_kernel.as_domain_kernel()
    kkey_self = assemble_kernel(layer.self_key_kernel.as_domain_kernel())
    kval_self = assemble_kernel(layer.self_value_kernel.as_domain_kernel())
    tin = layer.in_type
    catt = layer.att_type.dim
    out = np.zeros((mesh.n_vertices, layer.out_type.dim))
    for p, qs, thetas, gs in _edge_data(mesh, td):
        Q = kq @ f[p]
        Kcols = [kkey_self @ f[p]]
        Vcols = [kval_self @ f[p]]
        for q, th, g in zip(qs, thetas, gs):
            transported = rep_block_diag(tin, g) @ f[q]
            Kcols.append(assemble_kernel(kkey, th) @ transported)
            Vcols.append(assemble_kernel(kval, th) @ transported)
        K = np.stack(Kcols, axis=1)
        V = np.stack(Vcols, axis=1)
        alpha = _softmax(K.T @ Q / np.sqrt(catt))
        out[p] = (len(qs) + 1) * (V @ alpha)
    return _dense_bias(layer, out)


def dense_multihead_forward(layer, f, mesh, td):
    kq = assemble_kernel(layer.query_kernel.as_domain_kernel())
    kkey = layer.key_kernel.as_domain_kernel()
    kval = layer.value_kernel.as_domain_kernel()
    Wq = [assemble_kernel(k.as_domain_kernel()) for k in layer.head_query]
    Wk = [assemble_kernel(k.as_domain_kernel()) for k in layer.head_key]
    Wv = [assemble_kernel(k.as_domain_kernel()) for k in layer.head_value]
    WO = assemble_kernel(layer.out_mix.as_domain_kernel())
    tin = layer.in_type
    d = layer.head_type.dim
    out = np.zeros((mesh.n_vertices, layer.out_type.dim))
    for p, qs, thetas, gs in _edge_data(mesh, td):
        Q = kq @ f[p]
        Kcols, Vcols = [], []
        for q, th, g in zip(qs, thetas, gs):
            transported = rep_block_diag(tin, g) @ f[q]
            Kcols.append(assemble_kernel(kkey, th) @ transported)
            Vcols.append(assemble_kernel(kval, th) @ transported)
        K = np.stack(Kcols, axis=1)
        V = np.stack(Vcols, axis=1)
        heads = []
        for i in range(layer.heads):
            alpha = _softmax((Wk[i] @ K).T @ (Wq[i] @ Q) / np.sqrt(d))
            heads.append(len(qs) * (Wv[i] @ V @ alpha))
        out[p] = WO @ np.concatenate(heads)
    return _dense_bias(layer, out)

"""Independent numpy oracles for the benchmark's correctness checks.

Nothing here calls the program's encoding, forward, ranking or gradient
code. Each quantity is recomputed from the interaction lists, the raw
feature matrices and the checkpoint arrays alone, following the documented
definitions:

- graph smoothing: A[u, i] = 1 / sqrt(|N(u)| * deg(i)) for i in N(u), and
  smoothed features A^T (A X); items nobody consumed keep their raw feature;
- fused forward (the ``models`` docstring): item = [e_i, phi(P_v W_v z_v),
  phi(P_t W_t z_t)], user = [e_u, phi(P_v W_v mean_v), phi(P_t W_t mean_t)],
  with W the identity for the concat model;
- ranking: higher score first, exact ties by ascending item id, a user's
  training items excluded;
- per-user promotion gradient: sigma'(m_u) * c_i * W_m^T P_m^T
  ((1 - phi^2) * h_u[m]) for each modality m.

Each ``check_*`` function returns a list of problems, empty when the
program's output agrees with the oracle.
"""

from __future__ import annotations

import math

import numpy as np

# Score gaps this small (but not exactly zero) may rank either way between
# two float computations of the same score.
TIE_TOL = 1e-9
GRAD_RTOL = 1e-9
FEATURE_RTOL = 1e-10
LOSS_RTOL = 1e-10
SPHERE_RTOL = 1e-9
BUDGET_SLACK = 1e-12


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    scale = max(float(np.max(np.abs(exact))) if exact.size else 0.0, 1e-300)
    return float(np.max(np.abs(approx - exact))) / scale if exact.size else 0.0


class Reference:
    """Dataset-side constants recomputed from the interaction lists."""

    def __init__(self, user_items, num_items, raw_v, raw_t, kind):
        self.user_items = [np.asarray(a, dtype=np.int64) for a in user_items]
        self.num_users = len(self.user_items)
        self.num_items = int(num_items)
        self.kind = kind
        self.raw_v = np.asarray(raw_v, dtype=np.float64)
        self.raw_t = np.asarray(raw_t, dtype=np.float64)
        self.seen = np.zeros((self.num_users, self.num_items), dtype=bool)
        for u, items in enumerate(self.user_items):
            self.seen[u, items] = True
        deg = self.seen.sum(axis=0).astype(np.float64)
        self.isolated = deg == 0
        if kind == "graph":
            a = np.zeros((self.num_users, self.num_items))
            for u, items in enumerate(self.user_items):
                if items.size:
                    a[u, items] = 1.0 / np.sqrt(items.size * deg[items])
            self._a = a
            self.eff_v = self._smooth(self.raw_v)
            self.eff_t = self._smooth(self.raw_t)
            self.self_coef = (a * a).sum(axis=0)
            self.self_coef[self.isolated] = 1.0
        else:
            self._a = None
            self.eff_v = self.raw_v
            self.eff_t = self.raw_t
            self.self_coef = np.ones(self.num_items)
        self.user_mean_v = self._user_means(self.eff_v)
        self.user_mean_t = self._user_means(self.eff_t)

    def _smooth(self, x):
        out = self._a.T @ (self._a @ x)
        out[self.isolated] = x[self.isolated]
        return out

    def _user_means(self, feats):
        out = np.zeros((self.num_users, feats.shape[1]))
        for u, items in enumerate(self.user_items):
            if items.size:
                out[u] = feats[items].sum(axis=0) / items.size
        return out

    def delta_column(self, i):
        """Weight of a unit perturbation of item i's raw feature on every
        item's smoothed feature."""
        if self._a is None or self.isolated[i]:
            col = np.zeros(self.num_items)
            col[i] = 1.0
            return col
        col = self._a.T @ self._a[:, i]
        col[self.isolated] = 0.0
        return col


class Model:
    """The fused forward of one checkpoint over a Reference."""

    def __init__(self, ref, arrays, phi, user_content):
        self.ref = ref
        self.a = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
        self.phi = phi
        self.user_content = user_content
        self.id_dim = self.a["item_embeds"].shape[1]
        self.fuse_dim = self.a["proj_v"].shape[0]
        self.items = self.item_rows(np.arange(ref.num_items), ref.eff_v, ref.eff_t)
        self.users = self._user_rows()
        self.scores = self.users @ self.items.T
        self.masked = np.where(ref.seen, -np.inf, self.scores)

    def _pre(self, z, m):
        w = self.a.get(f"prop_{m}")
        x = z if w is None else z @ w.T
        return x @ self.a[f"proj_{m}"].T

    def _act(self, x):
        return np.tanh(x) if self.phi == "tanh" else x

    def block(self, m):
        lo = self.id_dim + (0 if m == "v" else self.fuse_dim)
        return slice(lo, lo + self.fuse_dim)

    def item_rows(self, idx, zv, zt):
        return np.concatenate([self.a["item_embeds"][idx],
                               self._act(self._pre(zv, "v")),
                               self._act(self._pre(zt, "t"))], axis=1)

    def _user_rows(self):
        if self.user_content == "id_only":
            return self.a["user_embeds"].copy()
        return np.concatenate([self.a["user_embeds"],
                               self._act(self._pre(self.ref.user_mean_v, "v")),
                               self._act(self._pre(self.ref.user_mean_t, "t"))], axis=1)

    def perturbed_masked(self, i, dv, dt):
        """``masked`` after adding (dv, dt) to item i's raw features."""
        col = self.ref.delta_column(i)
        rows = np.nonzero(col)[0]
        zv = self.ref.eff_v[rows] + col[rows, None] * dv[None, :]
        zt = self.ref.eff_t[rows] + col[rows, None] * dt[None, :]
        masked = self.masked.copy()
        cols = self.users @ self.item_rows(rows, zv, zt).T
        masked[:, rows] = np.where(self.ref.seen[:, rows], -np.inf, cols)
        return masked

    def bpr_loss(self, users, pos, neg):
        hu = self.users[users]
        margins = (hu * self.items[pos]).sum(axis=1) - (hu * self.items[neg]).sum(axis=1)
        return float(np.logaddexp(0.0, -margins).sum())

    def thresholds(self, i, k, users):
        """Each user's k-th best candidate score with item i left out."""
        masked = self.masked[users]
        masked[:, i] = -np.inf
        n = masked.shape[1]
        return np.partition(masked, n - k, axis=1)[:, n - k]

    def per_user_gradients(self, i, users, k):
        """Closed-form gradients of sigmoid(h_u . h_i - thr_u) in (dv, dt)."""
        users = np.asarray(users, dtype=np.int64)
        margin = self.users[users] @ self.items[i] - self.thresholds(i, k, users)
        s = 1.0 / (1.0 + np.exp(-margin))
        weight = s * (1.0 - s) * self.ref.self_coef[i]
        out = []
        for m in ("v", "t"):
            phi = self.items[i, self.block(m)]
            dphi = 1.0 - phi * phi if self.phi == "tanh" else np.ones_like(phi)
            back = (self.users[users][:, self.block(m)] * dphi[None, :]) @ self.a[f"proj_{m}"]
            w = self.a.get(f"prop_{m}")
            if w is not None:
                back = back @ w
            out.append(weight[:, None] * back)
        return out[0], out[1]


# ---------------------------------------------------------------------------
# ranking

def rank_bounds(masked, items):
    """Zero-based rank of ``items[u]`` for each user u, as a (low, high)
    pair. ``masked`` holds -inf at the items a user has seen, so they never
    outrank anything. Score gaps within TIE_TOL may fall either way; exact
    ties go to the lower item id. A seen target gets rank +inf."""
    rows = np.arange(masked.shape[0])
    target = masked[rows, items][:, None]
    tol = TIE_TOL * np.maximum(1.0, np.abs(np.nan_to_num(target, neginf=0.0)))
    above = (masked > target + tol).sum(axis=1)
    within = (masked >= target - tol).sum(axis=1)
    equal = masked == target
    ties_lower = (equal & (np.arange(masked.shape[1])[None, :] < items[:, None])).sum(axis=1)
    low = (above + ties_lower).astype(np.float64)
    high = low + (within - above - equal.sum(axis=1))
    unseen = np.isfinite(target[:, 0])
    low[~unseen] = np.inf
    high[~unseen] = np.inf
    return low, high


def hit_count_bounds(masked, item, k):
    """(fewest, most) users with ``item`` inside their top k."""
    low, high = rank_bounds(masked, np.full(masked.shape[0], item))
    return int((high <= k - 1).sum()), int((low <= k - 1).sum())


def recall_bounds(masked, holdout, k):
    """(fewest, most) users whose held-out item ranks inside the top k, and
    the number of users with a held-out item."""
    users = np.nonzero(holdout >= 0)[0]
    low, high = rank_bounds(masked[users], holdout[users])
    return int((high <= k - 1).sum()), int((low <= k - 1).sum()), users.size


def random_recall(seen, holdout, k):
    """Expected Recall@k of a uniformly random ranking."""
    users = np.nonzero(holdout >= 0)[0]
    candidates = seen.shape[1] - seen[users].sum(axis=1)
    return float(np.mean(np.minimum(1.0, k / candidates)))


# ---------------------------------------------------------------------------
# contributions and top sets

def contributions(grads):
    """Directional contribution cos(g_u, G) * |g_u| / sum |g| per user."""
    norms = np.linalg.norm(grads, axis=1)
    agg = grads.sum(axis=0)
    n_agg = float(np.linalg.norm(agg))
    total = float(norms.sum())
    out = np.zeros(grads.shape[0])
    ok = (norms >= 1e-12) & (n_agg >= 1e-12)
    out[ok] = (grads[ok] @ agg) / (n_agg * total)
    return out


def default_k_users(n_users):
    return max(1, math.ceil(0.1 * n_users))


# ---------------------------------------------------------------------------
# checks

def check_encoding(ref, eff_v, eff_t, self_coef, user_mean_v, user_mean_t):
    problems = []
    for name, got, want in (("eff_v", eff_v, ref.eff_v), ("eff_t", eff_t, ref.eff_t),
                            ("self_coef", self_coef, ref.self_coef),
                            ("user_mean_v", user_mean_v, ref.user_mean_v),
                            ("user_mean_t", user_mean_t, ref.user_mean_t)):
        err = rel_err(got, want)
        if np.shape(got) != np.shape(want) or not err <= FEATURE_RTOL:
            problems.append(f"encoding {name} differs from the dense smoothing "
                            f"(rel err {err:.3g})")
    return problems


def check_loss(program_loss, oracle_loss):
    err = abs(program_loss - oracle_loss) / max(abs(oracle_loss), 1e-300)
    if not err <= LOSS_RTOL:
        return [f"probe BPR loss {program_loss!r} != oracle {oracle_loss!r} (rel {err:.3g})"]
    return []


def check_sphere(rows, eps):
    """Every row has norm eps (the max phase puts each delta on its sphere)."""
    norms = np.linalg.norm(rows, axis=1)
    err = np.abs(norms - eps) / np.maximum(eps, 1e-300)
    bad = int((~(err <= SPHERE_RTOL)).sum())
    if bad:
        return [f"{bad} max-phase rows off their eps_d sphere (max rel {err.max():.3g})"]
    return []


def check_budget(item, delta_v, delta_t, eps_v, eps_t):
    problems = []
    for tag, d, eps in (("v", delta_v, eps_v), ("t", delta_t, eps_t)):
        n = float(np.linalg.norm(d))
        if not n <= eps * (1.0 + BUDGET_SLACK) + 1e-300:
            problems.append(f"target {item}: |delta_{tag}| {n!r} exceeds budget {eps!r}")
    return problems


def check_hits(item, program_pct, masked, k, tag):
    """The program reports hits as a percentage of all users."""
    lo, hi = hit_count_bounds(masked, item, k)
    count = program_pct * masked.shape[0] / 100.0
    if not (lo - 1e-6 <= count <= hi + 1e-6 and abs(count - round(count)) < 1e-6):
        return [f"target {item}: {tag} {program_pct!r}% is {count:.6f} users, "
                f"brute-force recount gives {lo}..{hi}"]
    return []


def check_recall(program_recall, masked, seen, holdout, k, floor_factor):
    lo, hi, n = recall_bounds(masked, holdout, k)
    count = program_recall * n
    problems = []
    if not lo - 1e-6 <= count <= hi + 1e-6:
        problems.append(f"Recall@{k} {program_recall!r} is {count:.3f} users, "
                        f"brute-force recount gives {lo}..{hi} of {n}")
    floor = floor_factor * random_recall(seen, holdout, k)
    if not program_recall > floor:
        problems.append(f"Recall@{k} {program_recall:.4f} not above {floor_factor}x "
                        f"random ({floor:.4f})")
    return problems


def check_gradients(item, got_v, got_t, want_v, want_t):
    problems = []
    for tag, got, want in (("v", got_v, want_v), ("t", got_t, want_t)):
        err = rel_err(got, want) if np.shape(got) == np.shape(want) else np.inf
        if not err <= GRAD_RTOL:
            problems.append(f"target {item}: per-user g_{tag} off the closed form "
                            f"(rel err {err:.3g})")
    return problems


def check_top_sets(item, users, c_v, c_t, users_v, users_t, jaccard, k_users=None):
    """The program's sets are top-k_users by oracle contribution (ties and
    near-ties either way), and its Jaccard value is theirs."""
    problems = []
    k_users = default_k_users(users.size) if k_users is None else k_users
    for tag, c, chosen in (("v", c_v, users_v), ("t", c_t, users_t)):
        chosen = np.asarray(chosen, dtype=np.int64)
        inside = np.isin(users, chosen)
        tol = 1e-8 * max(float(np.max(np.abs(c))), 1e-300)
        if chosen.size != k_users or int(inside.sum()) != k_users:
            problems.append(f"target {item}: top set {tag} has {chosen.size} users, "
                            f"expected {k_users} from the promotion set")
            continue
        if inside.all():
            continue
        if not c[inside].min() >= c[~inside].max() - tol:
            problems.append(f"target {item}: top set {tag} is not the top {k_users} "
                            f"by contribution")
    a, b = set(np.asarray(users_v).tolist()), set(np.asarray(users_t).tolist())
    want = len(a & b) / len(a | b) if a | b else float("nan")
    if not (0.0 <= jaccard <= 1.0 and jaccard == want):
        problems.append(f"target {item}: Jaccard {jaccard!r}, sets give {want!r}")
    return problems


def check_contributions(item, got_v, got_t, want_v, want_t):
    problems = []
    for tag, got, want in (("v", got_v, want_v), ("t", got_t, want_t)):
        err = rel_err(got, want)
        if not err <= 1e-8:
            problems.append(f"target {item}: contributions c_{tag} differ from the "
                            f"oracle (rel err {err:.3g})")
    return problems

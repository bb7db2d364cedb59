"""Deep autoencoder on sparse rating vectors, used to warm-start the factor model.

The network is a plain fully connected stack with SELU units at every layer,
trained by mini-batch SGD on a masked mean squared error.  Encoder and
decoder are symmetric in shape but weights are untied.

Rating data stays sparse end to end.  Each side of the rating matrix is a
``RatingRows``: one CSR row per input vector, whose stored positions are the
observation mask, so a stored rating of exactly 0.0 is observed.  Unobserved
positions are absent: they feed nothing into the input layer and take no
part in the loss.  Only the two visible-width layers see the sparsity.  The
input layer is a sparse-times-dense product, and the output layer is
evaluated only at the stored (row, col) positions, the only places the loss
has a gradient.  Both cost O(nnz·h) per pass instead of O(rows·visible·h),
and no rows × visible array is ever allocated.  The hidden layers are dense.

Dense ``(targets, mask)`` arguments are still accepted, for small inputs and
tests.  They are converted at entry, reading ``targets`` only where ``mask``
is set, so values at unobserved positions are inert to the bit.  A dense
array given without a mask counts every position as observed.
"""

from dataclasses import dataclass, field

import numpy as np

# Self-normalizing unit constants (Klambauer et al.).
SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

# Stored entries per block when the output layer gathers h[r] and W[:, c].
# At width 128 a block of 512 keeps both gathered operands (512 KB each) in
# L2 cache; blocks of 4096 ran 1.5-5x slower on a 2-core x86 machine.
_ENTRY_BLOCK = 512


def selu(x):
    return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(x))


def selu_grad(x):
    """Derivative of selu with respect to its pre-activation input."""
    return SELU_LAMBDA * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(x))


@dataclass
class AutoencoderConfig:
    """Shape and training schedule for one autoencoder.

    ``hidden_sizes`` lists the hidden layer widths in order; the middle entry
    is the code width.  An odd count keeps the stack symmetric around it.
    """

    hidden_sizes: tuple = (128, 64, 32, 10, 32, 64, 128)
    learning_rate: float = 0.001
    batch_size: int = 128
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        if len(self.hidden_sizes) % 2 == 0:
            raise ValueError("hidden_sizes must have an odd number of layers")
        if self.hidden_sizes != self.hidden_sizes[::-1]:
            raise ValueError("hidden_sizes must be symmetric around the code layer")
        if any(h <= 0 for h in self.hidden_sizes):
            raise ValueError("hidden layer widths must be positive")
        if not self.learning_rate > 0 or self.batch_size <= 0 or self.epochs < 0:
            raise ValueError("learning_rate and batch_size must be positive, epochs nonnegative")

    @property
    def code_size(self):
        return self.hidden_sizes[len(self.hidden_sizes) // 2]


@dataclass
class AutoencoderModel:
    """Weights and biases of a trained (or freshly initialized) stack.

    ``weights[-1]`` (W_L) is stored column-major, so that W_Lᵀ is a
    C-contiguous view that batches read without a copy.  Results depend only
    on the values: a C-ordered W_L gives the same bits, more slowly.
    """

    weights: list
    biases: list
    hidden_sizes: tuple
    loss_history: list = field(default_factory=list)

    @property
    def num_visible(self):
        return self.weights[0].shape[0]

    @property
    def code_layer(self):
        """Index into the activation list where the code lives."""
        return len(self.hidden_sizes) // 2 + 1


class RatingRows:
    """Observed entries of a rows × visible matrix, one CSR row per input vector.

    Every stored position is an observation, whatever its value.  ``len()``
    is the number of rows, so a batch says how many vectors it holds.
    """

    def __init__(self, matrix):
        self.matrix = matrix  # scipy csr_matrix

    def __len__(self):
        return self.matrix.shape[0]

    @property
    def num_visible(self):
        return self.matrix.shape[1]

    @property
    def values(self):
        """Stored values in storage order (row-major, columns ascending)."""
        return self.matrix.data

    @property
    def entry_rows(self):
        """Row index of each stored value, parallel to ``values``."""
        return np.repeat(np.arange(len(self)), np.diff(self.matrix.indptr))

    def take(self, rows):
        """The given rows, in the given order, as a new batch."""
        return RatingRows(self.matrix[rows])

    @classmethod
    def from_dense(cls, targets, mask=None):
        """Rows holding ``targets`` where ``mask`` is nonzero (everywhere if None).

        ``targets`` is read only at observed positions.
        """
        from scipy import sparse
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        if mask is None:
            observed = np.ones(targets.shape, dtype=bool)
        else:
            mask = np.atleast_2d(np.asarray(mask))
            if mask.shape != targets.shape:
                raise ValueError("targets and mask shapes differ")
            observed = mask != 0
        r, c = np.nonzero(observed)
        return cls(sparse.csr_matrix((targets[r, c], (r, c)), shape=targets.shape))


def _as_rows(targets, mask):
    if isinstance(targets, RatingRows):
        if mask is not None:
            raise ValueError("a RatingRows batch carries its own mask")
        return targets
    return RatingRows.from_dense(targets, mask)


def init_autoencoder(num_visible, config, rng):
    """Allocate weights uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero."""
    dims = [num_visible, *config.hidden_sizes, num_visible]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    weights[-1] = np.asfortranarray(weights[-1])
    return AutoencoderModel(weights, biases, config.hidden_sizes)


def _at_stored(h, w, b, rows):
    """``(h @ w + b)[r, c]`` at every stored (r, c) of ``rows``, in storage order."""
    r, c = rows.entry_rows, rows.matrix.indices
    out = np.empty(len(c))
    for s in range(0, len(c), _ENTRY_BLOCK):
        e = s + _ENTRY_BLOCK
        out[s:e] = np.einsum("ij,ij->i", h[r[s:e]], w.T[c[s:e]])
    return out + b[c]


def forward(model, x):
    """Run a batch through the stack.

    ``x`` is a RatingRows, or a dense (rows, visible) array whose every
    position counts as stored.  Returns (activations, pre_activations):
    activations[0] is ``x``, the hidden entries are dense (rows, width)
    arrays, and the last entries hold the reconstruction only at the input's
    stored positions, parallel to its stored values.  For a dense input every
    position is stored, and those last entries come back as
    (rows, visible) arrays.
    """
    rows = x if isinstance(x, RatingRows) else RatingRows.from_dense(x)
    if rows.num_visible != model.num_visible:
        raise ValueError(f"input width {rows.num_visible} does not match {model.num_visible} visible units")
    acts = [x]
    pres = []
    h = rows.matrix
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = _at_stored(h, w, b, rows) if layer == last else h @ w + b
        h = selu(z)
        pres.append(z)
        acts.append(h)
    if not isinstance(x, RatingRows):
        acts[-1] = acts[-1].reshape(rows.matrix.shape)
        pres[-1] = pres[-1].reshape(rows.matrix.shape)
    return acts, pres


def masked_mse(reconstruction, targets, mask):
    """Mean squared error over observed positions only.

    The divisor is the observed count across the whole batch.  A mask that
    selects nothing leaves the loss undefined and is rejected.
    """
    diff = (targets - reconstruction) * mask
    observed = mask.sum()
    if observed == 0:
        raise ValueError("mask selects no positions")
    return float((diff * diff).sum() / observed)


def loss_and_gradients(model, targets, mask=None):
    """Masked reconstruction loss and its exact gradients for one batch.

    The output deltas live only at the batch's stored positions and form a
    CSR matrix D with the batch's structure.  The output layer's weight
    gradient is (Dᵀh)ᵀ, its bias gradient a per-column sum of D, and the
    delta passed down is D @ Wᵀ.  The input layer's weight gradient is
    Xᵀ @ δ with X the sparse batch.

    Args:
        model: AutoencoderModel.
        targets: a RatingRows batch, or a dense (batch, num_visible) array.
        mask: with dense targets, the same shape, nonzero where observed;
            None for a RatingRows batch.

    Returns:
        (loss, weight_grads, bias_grads) with grads parallel to the model lists.
    """
    from scipy import sparse
    batch = _as_rows(targets, mask)
    acts, pres = forward(model, batch)
    observed = batch.matrix.nnz
    if observed == 0:
        return 0.0, [np.zeros_like(w) for w in model.weights], [np.zeros_like(b) for b in model.biases]

    w_grads = [None] * len(model.weights)
    b_grads = [None] * len(model.biases)
    diff = acts[-1] - batch.values
    loss = float(diff @ diff / observed)
    delta = (2.0 / observed) * diff * selu_grad(pres[-1])
    last = len(model.weights) - 1
    x = batch.matrix
    d = sparse.csr_matrix((delta, x.indices, x.indptr), shape=x.shape)
    w_grads[last] = (d.T @ acts[last]).T
    b_grads[last] = np.bincount(x.indices, weights=delta, minlength=model.num_visible)
    delta = (d @ model.weights[last].T) * selu_grad(pres[last - 1])
    for layer in range(last - 1, 0, -1):
        w_grads[layer] = acts[layer].T @ delta
        b_grads[layer] = delta.sum(axis=0)
        delta = (delta @ model.weights[layer].T) * selu_grad(pres[layer - 1])
    w_grads[0] = x.T @ delta
    b_grads[0] = delta.sum(axis=0)
    return loss, w_grads, b_grads


def train_autoencoder(targets, mask, config):
    """Fit a stack to the observed ratings by mini-batch SGD.

    Rows are shuffled each epoch with a generator seeded from the config, so
    training is reproducible.  ``loss_history[e]`` is epoch e's running loss:
    its batches' masked errors, each taken before that batch's update,
    averaged with the batches' observed counts as weights.

    Args:
        targets: RatingRows, or a (num_rows, num_visible) dense array.
        mask: with dense targets, the matching 0/1 observation array;
            None for RatingRows.
        config: AutoencoderConfig.
    """
    data = _as_rows(targets, mask)
    if data.matrix.nnz == 0:
        raise ValueError("training data has no observed entries")
    rng = np.random.default_rng(config.seed)
    model = init_autoencoder(data.num_visible, config, rng)
    n = len(data)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        squared_error = 0.0
        for start in range(0, n, config.batch_size):
            batch = data.take(order[start : start + config.batch_size])
            loss, w_grads, b_grads = loss_and_gradients(model, batch)
            squared_error += loss * batch.matrix.nnz
            for w, b, gw, gb in zip(model.weights, model.biases, w_grads, b_grads):
                w -= config.learning_rate * gw
                b -= config.learning_rate * gb
        model.loss_history.append(squared_error / data.matrix.nnz)
    return model


def encode(model, targets, mask=None):
    """Code-layer activations for the given rows, shape (num_rows, code_size).

    ``targets`` is a RatingRows, or a dense array with its 0/1 ``mask``.
    """
    acts, _ = forward(model, _as_rows(targets, mask))
    return acts[model.code_layer]


def rating_rows(ratings, axis="users"):
    """One side of a RatingMatrix as RatingRows.

    ``axis="users"`` yields one row per user over items; ``axis="items"``
    one row per item over users.  Every stored rating is an entry, a rating
    of exactly 0.0 included.
    """
    from scipy import sparse
    if axis not in ("users", "items"):
        raise ValueError("axis must be 'users' or 'items'")
    rows, cols = ratings.users, ratings.items
    shape = (ratings.num_users, ratings.num_items)
    if axis == "items":
        rows, cols, shape = cols, rows, shape[::-1]
    return RatingRows(sparse.csr_matrix((ratings.values, (rows, cols)), shape=shape))


def rating_arrays(ratings, axis="users"):
    """Dense (targets, mask) pair of one side of a RatingMatrix.

    The same rows as ``rating_rows``, densified: the mask is 1.0 at every
    stored rating, a rating of exactly 0.0 included, and absent entries are
    zero in both arrays.  The training path never builds these; they suit
    small inputs and inspection.
    """
    rows = rating_rows(ratings, axis)
    mask = np.zeros(rows.matrix.shape)
    mask[rows.entry_rows, rows.matrix.indices] = 1.0
    return rows.matrix.toarray(), mask

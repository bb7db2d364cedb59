"""Deep autoencoder on sparse rating vectors, used to warm-start the factor model.

The network is a plain fully connected stack with SELU units at every layer,
trained by mini-batch SGD on a masked mean squared error: only observed
(nonzero-mask) positions contribute to the loss, and unobserved positions are
zeroed on the way in, so their stored values are inert.  Encoder and decoder
are symmetric in shape but weights are untied.
"""

from dataclasses import dataclass, field

import numpy as np

# Self-normalizing unit constants (Klambauer et al.).
SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


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
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.epochs < 0:
            raise ValueError("learning_rate and batch_size must be positive, epochs nonnegative")

    @property
    def code_size(self):
        return self.hidden_sizes[len(self.hidden_sizes) // 2]


@dataclass
class AutoencoderModel:
    """Weights and biases of a trained (or freshly initialized) stack."""

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


def init_autoencoder(num_visible, config, rng):
    """Allocate weights uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero."""
    dims = [num_visible, *config.hidden_sizes, num_visible]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return AutoencoderModel(weights, biases, config.hidden_sizes)


def forward(model, x_masked):
    """Run masked inputs through the stack.

    Returns (activations, pre_activations); activations[0] is the input and
    activations[-1] the reconstruction.
    """
    acts = [x_masked]
    pres = []
    h = x_masked
    for w, b in zip(model.weights, model.biases):
        z = h @ w + b
        h = selu(z)
        pres.append(z)
        acts.append(h)
    return acts, pres


def masked_mse(reconstruction, targets, mask):
    """Mean squared error over observed positions only.

    The divisor is the observed count across the whole batch.  A mask that
    selects nothing leaves the loss undefined and is rejected.
    """
    observed = mask.sum()
    if observed == 0:
        raise ValueError("mask selects no positions")
    diff = (targets - reconstruction) * mask
    return float((diff * diff).sum() / observed)


def loss_and_gradients(model, targets, mask):
    """Masked reconstruction loss and its exact gradients.

    Inputs are ``targets * mask``, so values at unobserved positions never
    touch the network or the loss.

    Args:
        model: AutoencoderModel.
        targets: batch of rating vectors, shape (batch, num_visible).
        mask: same shape, 1.0 where observed.

    Returns:
        (loss, weight_grads, bias_grads) with grads parallel to the model lists.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    mask = np.atleast_2d(np.asarray(mask, dtype=np.float64))
    acts, pres = forward(model, targets * mask)
    observed = mask.sum()
    w_grads = [np.zeros_like(w) for w in model.weights]
    b_grads = [np.zeros_like(b) for b in model.biases]
    if observed == 0:
        return 0.0, w_grads, b_grads

    diff = (acts[-1] - targets) * mask
    loss = float((diff * diff).sum() / observed)
    delta = (2.0 / observed) * diff * selu_grad(pres[-1])
    for layer in reversed(range(len(model.weights))):
        w_grads[layer] = acts[layer].T @ delta
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * selu_grad(pres[layer - 1])
    return loss, w_grads, b_grads


def train_autoencoder(targets, mask, config):
    """Fit a stack to the masked batch matrix by mini-batch SGD.

    Rows are shuffled each epoch with a generator seeded from the config, so
    training is reproducible.  ``loss_history`` records the full-data masked
    error after each epoch.

    Args:
        targets: (num_rows, num_visible) dense array of raw values.
        mask: matching 0/1 observation array.
        config: AutoencoderConfig.
    """
    targets = np.asarray(targets, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if targets.shape != mask.shape:
        raise ValueError("targets and mask shapes differ")
    if mask.sum() == 0:
        raise ValueError("training data has no observed entries")
    rng = np.random.default_rng(config.seed)
    model = init_autoencoder(targets.shape[1], config, rng)
    n = targets.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            _, w_grads, b_grads = loss_and_gradients(model, targets[rows], mask[rows])
            for w, b, gw, gb in zip(model.weights, model.biases, w_grads, b_grads):
                w -= config.learning_rate * gw
                b -= config.learning_rate * gb
        acts, _ = forward(model, targets * mask)
        model.loss_history.append(masked_mse(acts[-1], targets, mask))
    return model


def encode(model, targets, mask):
    """Code-layer activations for the given rows, shape (num_rows, code_size)."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    mask = np.atleast_2d(np.asarray(mask, dtype=np.float64))
    acts, _ = forward(model, targets * mask)
    return acts[model.code_layer]


def rating_arrays(ratings, axis="users"):
    """Dense (targets, mask) pair from a RatingMatrix, rows along the given axis.

    ``axis="users"`` yields one row per user over items; ``axis="items"``
    transposes that.  The mask is 1.0 at every stored rating, a rating of
    exactly 0.0 included; absent entries are zero in both arrays.
    """
    if axis not in ("users", "items"):
        raise ValueError("axis must be 'users' or 'items'")
    dense = np.zeros((ratings.num_users, ratings.num_items))
    mask = np.zeros_like(dense)
    dense[ratings.users, ratings.items] = ratings.values
    mask[ratings.users, ratings.items] = 1.0
    if axis == "items":
        return dense.T, mask.T
    return dense, mask

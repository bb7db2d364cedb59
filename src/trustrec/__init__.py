"""Trust-aware collaborative filtering.

Factor-model recommendation on a rating matrix plus a directed trust graph:
autoencoder-pretrained latent factors, node2vec-style trust embeddings,
propagated-trust smoothing, and community-leader regularization, with a
deterministic training and evaluation pipeline on top.  The API lives in
the submodules (``trustrec.data``, ``trustrec.model``, ...); importing the
package loads none of them.

scipy is imported inside the functions that use it, never at module level,
so a command that calls none of them starts on numpy alone.
"""

__version__ = "0.1.0"

"""Monte Carlo error in b1: how many blocks the vote needs.

Cannings & Samworth bound the excess test error of a random-projection
ensemble of b1 blocks over its b1 -> infinity limit by a term of order
1/b1. One fit of 500 blocks on the desk scenario is cut to its first b1
blocks, an exact b1-block fit of the same seed, and the vote threshold
alpha is re-selected on each prefix's training votes. A test row's vote
fraction nu is a mean of b1 block votes, with binomial standard error
sqrt(nu (1 - nu) / b1); the rows within two of those of alpha are the
ones whose label more blocks could still flip.
"""

from dataclasses import replace

import numpy as np

import rankqda as rq
from rankqda.rng import substream

p = 10
cov0 = np.eye(p)
idx = np.arange(p - 1)
cov0[idx, idx + 1] = cov0[idx + 1, idx] = 0.05
cov1 = np.eye(p)
cov1[:4, :4] = 0.85
cov1[4, 5] = cov1[5, 4] = -0.8
np.fill_diagonal(cov1, 1.0)

spec = rq.ScenarioSpec(p=p, prior1=0.5, cov0=cov0, cov1=cov1,
                       marginal_maps=["exp", "cube"] * 5, seed=20260810)
train = rq.sample_meta_gaussian(500, spec, substream(1, 3))
test = rq.sample_meta_gaussian(20000, spec, substream(1, 4))

full = rq.train_ensemble(train.features, train.labels, rq.EnsembleConfig(d=3, b1=500, b2=20, seed=42))

print(" b1   alpha   test error  near-alpha share")
for b1 in (10, 50, 100, 200, 500):
    prefix = rq.EnsembleModel(full.marginal_model, full.blocks[:b1], 0.5, replace(full.config, b1=b1))
    alpha = rq.select_alpha(rq.vote_fractions(prefix, train.features), train.labels, b1)
    preds, nu = rq.predict(replace(prefix, alpha=alpha), test.features)
    error = np.mean(preds != test.labels)
    near = np.mean(np.abs(nu - alpha) <= 2.0 * np.sqrt(nu * (1.0 - nu) / b1))
    print(f"{b1:4d}  {alpha:6.4f}  {error:.4f}      {near:.4f}")

# the error falls and the share of rows a larger b1 could still flip
# shrinks about as 1/sqrt(b1): the vote's Monte Carlo error, not the data

"""HABIT — the paper's contribution: preprocess, graphgen, impute, simplify."""

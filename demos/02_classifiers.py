"""The four decision rules on a 1-D fixture where they visibly disagree.

Class A sits tightly around 0, class B spreads widely around 6. A query
between them is closer to B's nearest sample, but A's samples are closer
on average: plain voting and the per-class mean-distance rules pull in
different directions.
"""

import numpy as np

from fknne import KINDS, ClassifierConfig, Dataset, fit, kneighbors, predict

points = [0.0, 0.4, 0.8, 4.6, 6.0, 9.0]
labels = ["A", "A", "A", "B", "B", "B"]
data = Dataset([f"s{i}" for i in range(6)], np.array(points).reshape(-1, 1), labels)
query = np.array([2.8])

print("training points:", dict(zip(points, labels)), "query:", query[0])

model = fit(data, ClassifierConfig(k=2, normalize=False))
print("\n2 nearest overall:", kneighbors(model, query, 2))
print("2 nearest per class: A ->", kneighbors(model, query, 2, class_filter="A"),
      " B ->", kneighbors(model, query, 2, class_filter="B"))

for kind in KINDS:
    p = predict(model, query, kind)
    scores = {c: round(s, 4) for c, s in p.as_dict().items()}
    print(f"{kind:6s} -> {p.label}   scores {scores}")

print("\nsoft training memberships (keller init, k_init=3):")
keller = fit(data, ClassifierConfig(k=2, init="keller", k_init=3, normalize=False))
for sid, lab, u in zip(keller.ids, keller.labels, keller.memberships):
    print(f"  {sid} ({lab}): A={u[0]:.4f} B={u[1]:.4f}")
p = predict(keller, query, "fknne")
print("fknne with soft memberships ->", p.label,
      {c: round(s, 4) for c, s in p.as_dict().items()})

"""Dual encoder basics: tokenize, encode text and images, score classes.

The text tower is a tiny transformer read out at the end sentinel; the image
tower is a two-layer MLP. Both land in one joint space, and classification is
cosine similarity at the fixed temperature 0.07. All weights are frozen at
construction: nothing here ever trains the encoder itself.
"""

import numpy as np

from promptlab.config import TEMPERATURE
from promptlab.data import LatentAttribute, TaskSpec, generate_task
from promptlab.encoders import DualEncoder, build_config_for

spec = TaskSpec(
    num_classes=4,
    samples_per_class=8,
    latent_attributes=(
        LatentAttribute("color", ("color0", "color1", "color2", "color3")),
        LatentAttribute("shape", ("shape0",)),
    ),
    informative_attributes=("color",),
    feature_map="identity",
    raw_feature_dim=32,
    embed_dim=32,
    seed=7,
)
task = generate_task(spec)
print("classes:", task.class_names)
print("vocabulary size:", len(task.vocabulary))

encoder = DualEncoder(
    build_config_for(task.vocabulary, num_heads=1, image_dim=32, joint_dim=32,
                     image_hidden_dim=32),
    task.vocabulary, seed=0,
)

############## text side ##############
ids = task.vocabulary.encode_with_sentinels(task.class_names[0])
print("token ids for", repr(task.class_names[0]), "->", list(ids))
# every encoder entry point takes a batch: here, one class name gives features [1, joint]
features = encoder.encode_class_names(task.class_names[:1])
print("text feature is unit norm:", float(np.linalg.norm(features.data[0])))

############## image side, zero-shot scoring ##############
x_train, y_train = task.splits["train"]
images = encoder.encode_image(x_train)
class_feats = encoder.encode_class_names(task.class_names)
logits = encoder.class_logits(images, class_feats)

pred = logits.data.argmax(axis=1)
print("temperature:", TEMPERATURE)
print("true labels (first 8):     ", y_train[:8].tolist())
print("zero-shot argmax (first 8):", pred[:8].tolist())
print("zero-shot accuracy, no prompts trained:", float((pred == y_train).mean()))

# The frozen weights carry a fingerprint, so any accidental mutation is loud.
before = encoder.weights_fingerprint()
_ = encoder.encode_image(x_train[:2])
assert encoder.weights_fingerprint() == before
print("weights fingerprint stable across calls")

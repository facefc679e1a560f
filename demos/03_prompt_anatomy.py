"""What a composed prompt actually looks like: segments, layouts, and the deep variant."""

import numpy as np

from promptlab import tensor as T
from promptlab.encoders import DualEncoder, EncoderConfig
from promptlab.prompts import (
    PromptLayout,
    SoftPromptBank,
    compose_classic,
    compose_shallow,
    deep_forward,
    template_rows_for,
)
from promptlab.vocab import EOS, SOS, Vocabulary

rng = np.random.default_rng(3)
words = ["a", "photo", "of", "cat", "dog", "color", "shape"]
vectors = rng.standard_normal((len(words) + 2, 16))
vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
vocab = Vocabulary([SOS, EOS] + words, vectors)
encoder = DualEncoder(
    EncoderConfig(embed_dim=16, num_layers=3, num_heads=2, joint_dim=12, image_dim=8,
                  image_hidden_dim=8),
    vocab, seed=5,
)

bank = SoftPromptBank.create(
    embed_dim=16, soft_len=2, attribute_names=("color", "shape"), attr_soft_len=1,
    depth=2, seed=0, scheme="phrase_init", template_rows=template_rows_for(encoder),
)

def show(tag, prompt):
    cells = [f"{s.kind}[{s.length}]" + (f":{s.name}" if s.name else "") for s in prompt.segments]
    print(f"{tag:<28} len {prompt.length:<3} " + " | ".join(cells))

############## classic vs anchored ##############
show("classic", compose_classic(encoder, bank, "cat"))
layout = PromptLayout(attribute_names=("color", "shape"))
show("anchored (interval)", compose_shallow(encoder, bank, layout, "cat"))

# Class token position and attribute placement are both layout decisions.
for pos in ("front", "middle"):
    show(f"class at {pos}", compose_shallow(
        encoder, bank, PromptLayout(attribute_names=("color", "shape"),
                                    class_token_position=pos), "cat"))
show("separate style", compose_shallow(
    encoder, bank, PromptLayout(attribute_names=("color", "shape"),
                                attribute_position_style="separate"), "cat"))

############## the deep pass ##############
# Depth d re-injects fresh learnable blocks at the first d layers. The output
# is the same kind of unit feature the shallow pass produces.
deep_layout = PromptLayout(attribute_names=("color", "shape"), depth=2)
feature = deep_forward(encoder, bank, deep_layout, "cat")
print("deep feature norm:", float(np.linalg.norm(feature.data)))

# Soft blocks are the only trainable leaves; a backward pass proves it.
T.tsum(feature).backward()
print("class block grad norm:", float(np.linalg.norm(bank.class_block.grad)))
print("encoder token table grad:", encoder.token_embedding.grad)

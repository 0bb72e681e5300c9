"""Straight-line reference client: the oracle of the differential gates.

Figure 1 written top to bottom against the two transports — one keygen
call per file, one PUT and one GET per chunk; no stages, no batching, no
cache, no aliasing, no threads — so what the real client stores and
restores can be compared with something that is obviously in order. It
shares the primitives (hashes, cipher profile, recipe codec, messages)
with ``src/`` and none of the client data path.
"""

from repro.core.keygen import derive_key
from repro.crypto.hashes import digest
from repro.crypto.murmur3 import short_hashes
from repro.storage.recipe import FileRecipe, KeyRecipe, seal, unseal
from repro.tedstore import messages as m
from repro.tedstore.client import UploadResult


class ReferenceClient:
    def __init__(self, key_manager, provider, *, master_key, profile,
                 sketch_rows, sketch_width):
        self.key_manager, self.provider = key_manager, provider
        self.master_key, self.profile = master_key, profile
        self.rows, self.width = sketch_rows, sketch_width

    def upload_chunks(self, name, chunks):
        algorithm = self.profile.hash_algorithm
        fps = [digest(chunk, algorithm) for chunk in chunks]
        vectors = [short_hashes(fp, self.rows, self.width) for fp in fps]
        seeds = self.key_manager.keygen(m.KeyGenRequest(hash_vectors=vectors)).seeds
        file_recipe, key_recipe = FileRecipe(file_name=name), KeyRecipe()
        stored = 0
        for chunk, fp, seed in zip(chunks, fps, seeds):
            key = derive_key(seed, fp, algorithm)
            ciphertext = self.profile.encrypt(key, chunk)
            cipher_fp = digest(ciphertext, algorithm)
            stored += self.provider.put_chunks(
                m.PutChunks(chunks=[(cipher_fp, ciphertext)])
            ).stored
            file_recipe.add(cipher_fp, len(chunk))
            key_recipe.add(key)
        sealed_file = seal(self.master_key, file_recipe.serialize())
        sealed_keys = seal(self.master_key, key_recipe.serialize())
        self.provider.put_recipes(m.PutRecipes(
            file_name=name, sealed_file_recipe=sealed_file, sealed_key_recipe=sealed_keys
        ))
        return UploadResult(
            name, sum(map(len, chunks)), len(chunks), stored, len(chunks) - stored
        )

    def _get(self, fingerprints):
        return [
            self.provider.get_chunks(m.GetChunks(fingerprints=[fp])).chunks[0]
            for fp in fingerprints
        ]

    def download(self, name):
        sealed = self.provider.get_recipes(m.GetRecipes(file_name=name))
        file_recipe = FileRecipe.deserialize(
            unseal(self.master_key, sealed.sealed_file_recipe)
        )
        key_recipe = KeyRecipe.deserialize(
            unseal(self.master_key, sealed.sealed_key_recipe)
        )
        ciphertexts = self._get([fp for fp, _size in file_recipe.entries])
        return b"".join(
            self.profile.decrypt(key, ciphertext)
            for key, ciphertext in zip(key_recipe.keys, ciphertexts)
        )

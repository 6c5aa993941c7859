// Feature extraction: histograms, R2D2 / frequency images, tokenizers.
#include <gtest/gtest.h>

#include "core/features.hpp"
#include "synth/contract_synthesizer.hpp"

namespace phishinghook::core {
namespace {

using synth::ContractSynthesizer;

TEST(HistogramVocabulary, CountsMatchDisassembly) {
  const Bytecode code = Bytecode::from_hex("0x6080604052");  // PUSH1 x2, MSTORE
  HistogramVocabulary vocab;
  vocab.fit({&code});
  ASSERT_EQ(vocab.size(), 2u);
  const auto counts = vocab.transform(code);
  // First-seen order: PUSH1 then MSTORE.
  EXPECT_EQ(vocab.mnemonics()[0], "PUSH1");
  EXPECT_EQ(counts[0], 2.0);
  EXPECT_EQ(counts[1], 1.0);
}

TEST(HistogramVocabulary, UnseenMnemonicsDropped) {
  const Bytecode train = Bytecode::from_hex("0x6080");  // PUSH1
  const Bytecode test = Bytecode::from_hex("0x608052");  // PUSH1 + MSTORE
  HistogramVocabulary vocab;
  vocab.fit({&train});
  const auto counts = vocab.transform(test);
  ASSERT_EQ(counts.size(), 1u);  // MSTORE not in vocabulary
  EXPECT_EQ(counts[0], 1.0);
}

TEST(HistogramVocabulary, MatrixShape) {
  const Bytecode a = Bytecode::from_hex("0x6080604052");
  const Bytecode b = Bytecode::from_hex("0x00");
  HistogramVocabulary vocab;
  const std::vector<const Bytecode*> corpus = {&a, &b};
  vocab.fit(corpus);
  const ml::Matrix m = vocab.transform_all(corpus);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), vocab.size());
}

TEST(R2d2Image, BytesBecomePixels) {
  // Bytes fill R,G,B of consecutive pixels, normalized by 255.
  const Bytecode code = Bytecode::from_hex("0xff0080112233");
  const auto image = r2d2_image(code, 4);
  EXPECT_EQ(image.shape(), (std::vector<std::size_t>{3, 4, 4}));
  EXPECT_FLOAT_EQ(image.at3(0, 0, 0), 1.0F);          // 0xff
  EXPECT_FLOAT_EQ(image.at3(1, 0, 0), 0.0F);          // 0x00
  EXPECT_FLOAT_EQ(image.at3(2, 0, 0), 128.0F / 255);  // 0x80
  EXPECT_FLOAT_EQ(image.at3(0, 0, 1), 0x11 / 255.0F);
  // Zero padding beyond the code.
  EXPECT_FLOAT_EQ(image.at3(0, 3, 3), 0.0F);
}

TEST(R2d2Image, LongCodeTruncates) {
  std::vector<std::uint8_t> bytes(1000, 0xAB);
  const Bytecode code(bytes);
  const auto image = r2d2_image(code, 4);  // 16 pixels * 3 = 48 bytes used
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t h = 0; h < 4; ++h) {
      for (std::size_t w = 0; w < 4; ++w) {
        EXPECT_FLOAT_EQ(image.at3(c, h, w), 0xAB / 255.0F);
      }
    }
  }
}

TEST(FrequencyEncoder, FrequentMnemonicsGetBrighterPixels) {
  // Training corpus dominated by PUSH1.
  const Bytecode train = Bytecode::from_hex("0x60016002600360045200");
  FrequencyEncoder encoder;
  encoder.fit({&train});
  const auto image = encoder.transform(train, 4);
  // Pixel 0 (PUSH1) must be brighter in the R channel than pixel 4 (MSTORE).
  EXPECT_GT(image.at3(0, 0, 0), image.at3(0, 1, 0));
  // The most frequent mnemonic saturates at 1.0.
  EXPECT_FLOAT_EQ(image.at3(0, 0, 0), 1.0F);
}

TEST(FrequencyEncoder, UnseenEntriesDark) {
  const Bytecode train = Bytecode::from_hex("0x6001");
  const Bytecode test = Bytecode::from_hex("0x00");  // STOP unseen
  FrequencyEncoder encoder;
  encoder.fit({&train});
  const auto image = encoder.transform(test, 4);
  EXPECT_FLOAT_EQ(image.at3(0, 0, 0), 0.0F);
}

TEST(NgramTokenizer, SixHexCharGrams) {
  // 6 hex chars = 3 bytes per token; 9 bytes -> 3 tokens.
  const Bytecode code = Bytecode::from_hex("0x112233445566778899");
  NgramTokenizer tokenizer(16);
  tokenizer.fit({&code});
  const TokenSequence tokens = tokenizer.transform(code);
  EXPECT_EQ(tokens.size(), 3u);
  // All three grams were in the training set -> none map to UNK.
  for (std::size_t token : tokens) EXPECT_NE(token, 0u);
}

TEST(NgramTokenizer, UnseenGramsMapToUnk) {
  const Bytecode train = Bytecode::from_hex("0x112233");
  const Bytecode test = Bytecode::from_hex("0xaabbcc112233");
  NgramTokenizer tokenizer(16);
  tokenizer.fit({&train});
  const TokenSequence tokens = tokenizer.transform(test);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], 0u);  // unseen
  EXPECT_NE(tokens[1], 0u);
}

TEST(NgramTokenizer, VocabCapKeepsMostFrequent) {
  // Gram A appears 3x, B 2x, C 1x; vocab allows only 2 non-UNK entries.
  const Bytecode code =
      Bytecode::from_hex("0xaaaaaa" "aaaaaa" "aaaaaa" "bbbbbb" "bbbbbb" "cccccc");
  NgramTokenizer tokenizer(3);
  tokenizer.fit({&code});
  const TokenSequence tokens = tokenizer.transform(code);
  // C (least frequent) fell out of the vocabulary.
  EXPECT_EQ(tokens.back(), 0u);
  EXPECT_NE(tokens.front(), 0u);
}

TEST(ByteTokens, RawBytesPlusPad) {
  const Bytecode code = Bytecode::from_hex("0x60ff00");
  const TokenSequence tokens = byte_tokens(code);
  EXPECT_EQ(tokens, (TokenSequence{0x60, 0xFF, 0x00}));
  EXPECT_EQ(byte_tokens(Bytecode()), (TokenSequence{256}));
}

TEST(Features, SyntheticContractsProduceNonTrivialFeatures) {
  common::Rng rng(42);
  const ContractSynthesizer synth;
  const auto benign = synth.benign(chain::Month{2}, rng);
  const auto phishing =
      synth.phishing(chain::Month{2}, rng, synth::random_address(rng));

  HistogramVocabulary vocab;
  vocab.fit({&benign.runtime, &phishing.runtime});
  EXPECT_GT(vocab.size(), 10u);
  const auto hist = vocab.transform(benign.runtime);
  double total = 0;
  for (double v : hist) total += v;
  EXPECT_GT(total, 20.0);

  const auto tokens = byte_tokens(phishing.runtime);
  EXPECT_EQ(tokens.size(), phishing.runtime.size());
}

}  // namespace
}  // namespace phishinghook::core

#include "nlp/matcher.hpp"

#include <cctype>
#include <string>

namespace tero::nlp {
namespace {

bool is_word_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' ||
         c == '-';
}

bool starts_uppercase(std::string_view word) noexcept {
  return !word.empty() &&
         std::isupper(static_cast<unsigned char>(word.front())) != 0;
}

}  // namespace

std::vector<Token> tokenize(std::string_view text) {
  std::vector<Token> tokens;
  std::size_t start = 0;
  bool in_word = false;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const bool word_char = i < text.size() && is_word_char(text[i]);
    if (word_char && !in_word) {
      start = i;
      in_word = true;
    } else if (!word_char && in_word) {
      tokens.push_back(Token{text.substr(start, i - start)});
      in_word = false;
    }
  }
  return tokens;
}

std::vector<PlaceMention> drop_entity_mentions(
    std::string_view text, std::vector<PlaceMention> mentions,
    const geo::Gazetteer& gazetteer) {
  const auto tokens = tokenize(text);
  std::vector<PlaceMention> kept;
  for (auto& mention : mentions) {
    const std::size_t next =
        mention.token_index + static_cast<std::size_t>(mention.token_count);
    if (next < tokens.size() && starts_uppercase(tokens[next].text) &&
        gazetteer.find_all(tokens[next].text).empty()) {
      continue;  // "Paris Hilton": likely an entity, not a location
    }
    kept.push_back(mention);
  }
  return kept;
}

std::vector<PlaceMention> find_mentions(std::string_view text,
                                        const geo::Gazetteer& gazetteer,
                                        const MatchOptions& options) {
  const auto tokens = tokenize(text);
  std::vector<PlaceMention> mentions;

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // Longest n-gram first so "New York City" beats "New York".
    for (int n = options.max_ngram; n >= 1; --n) {
      if (i + static_cast<std::size_t>(n) > tokens.size()) continue;
      std::string candidate;
      bool capitalized = true;
      for (int k = 0; k < n; ++k) {
        if (k > 0) candidate += ' ';
        candidate += tokens[i + k].text;
        capitalized = capitalized && starts_uppercase(tokens[i + k].text);
      }
      if (options.require_capitalized && !capitalized) continue;

      auto matches = gazetteer.find_all(candidate);
      if (matches.empty() && options.allow_substring && n == 1 &&
          candidate.size() >= 6) {
        // Substring fallback: a long token that *contains* a place name,
        // e.g. "Denmarkian". Only names >= 5 chars, to bound false hits.
        matches = gazetteer.find_within(candidate, 5);
      }
      if (matches.empty()) continue;
      for (const geo::Place* place : matches) {
        mentions.push_back(PlaceMention{place, i, n, capitalized});
      }
      i += static_cast<std::size_t>(n) - 1;  // consume the n-gram
      break;
    }
  }
  return mentions;
}

}  // namespace tero::nlp

#include <gtest/gtest.h>

#include <chrono>

#include "src/common/rng.h"
#include "src/ltl/sat.h"
#include "src/ltl/tableau.h"

namespace accltl {
namespace ltl {
namespace {

LtlPtr P(int i) { return LtlFormula::Prop(i); }

TEST(LtlEvalTest, PropAndBooleans) {
  Word w = {{0}, {1}};
  EXPECT_TRUE(EvalOnWord(P(0), w));
  EXPECT_FALSE(EvalOnWord(P(1), w));
  EXPECT_TRUE(EvalOnWord(LtlFormula::Not(P(1)), w));
  EXPECT_TRUE(EvalOnWord(LtlFormula::And({P(0), LtlFormula::Not(P(1))}), w));
  EXPECT_TRUE(EvalOnWord(LtlFormula::Or({P(1), P(0)}), w));
}

TEST(LtlEvalTest, StrongAndWeakNext) {
  Word w = {{0}, {1}};
  EXPECT_TRUE(EvalOnWord(LtlFormula::Next(P(1)), w));
  EXPECT_FALSE(EvalOnWord(LtlFormula::Next(P(0)), w));
  // At the last position, X φ is false and N φ is true.
  EXPECT_FALSE(EvalOnWord(LtlFormula::Next(LtlFormula::Next(P(0))), w));
  EXPECT_TRUE(EvalOnWord(LtlFormula::Next(LtlFormula::WeakNext(P(0))), w));
}

TEST(LtlEvalTest, UntilAndDeriveds) {
  Word w = {{0}, {0}, {1}};
  EXPECT_TRUE(EvalOnWord(LtlFormula::Until(P(0), P(1)), w));
  EXPECT_TRUE(EvalOnWord(LtlFormula::Eventually(P(1)), w));
  EXPECT_FALSE(EvalOnWord(LtlFormula::Globally(P(0)), w));
  EXPECT_TRUE(EvalOnWord(
      LtlFormula::Globally(LtlFormula::Or({P(0), P(1)})), w));
  // Until fails when the left side breaks first.
  Word w2 = {{0}, {}, {1}};
  EXPECT_FALSE(EvalOnWord(LtlFormula::Until(P(0), P(1)), w2));
}

TEST(LtlSatTest, SimpleSatisfiable) {
  SatResult r = CheckSatFinite(LtlFormula::Eventually(P(0)));
  EXPECT_TRUE(r.satisfiable);
  ASSERT_FALSE(r.witness.empty());
  EXPECT_TRUE(EvalOnWord(LtlFormula::Eventually(P(0)), r.witness));
}

TEST(LtlSatTest, SimpleUnsatisfiable) {
  // p ∧ ¬p at the first position.
  LtlPtr f = LtlFormula::And({P(0), LtlFormula::Not(P(0))});
  EXPECT_FALSE(CheckSatFinite(f).satisfiable);
  // G p ∧ F ¬p.
  LtlPtr g = LtlFormula::And(
      {LtlFormula::Globally(P(0)),
       LtlFormula::Eventually(LtlFormula::Not(P(0)))});
  EXPECT_FALSE(CheckSatFinite(g).satisfiable);
}

TEST(LtlSatTest, StrongNextNeedsLongerWords) {
  // X X X p needs a word of length >= 4.
  LtlPtr f = LtlFormula::Next(LtlFormula::Next(LtlFormula::Next(P(0))));
  SatResult r = CheckSatFinite(f);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_GE(r.witness.size(), 4u);
  EXPECT_TRUE(EvalOnWord(f, r.witness));
}

TEST(LtlSatTest, UntilWithObligations) {
  // (p U q) ∧ G(¬q) is unsatisfiable.
  LtlPtr f = LtlFormula::And(
      {LtlFormula::Until(P(0), P(1)),
       LtlFormula::Globally(LtlFormula::Not(P(1)))});
  EXPECT_FALSE(CheckSatFinite(f).satisfiable);
}

TEST(LtlSatTest, NnfCorrectOnDuals) {
  // ¬(p U q) ≡ ¬p R ¬q on finite words; check via sat of the xor.
  LtlPtr u = LtlFormula::Until(P(0), P(1));
  LtlPtr r = LtlFormula::Release(LtlFormula::Not(P(0)),
                                 LtlFormula::Not(P(1)));
  // (¬(pUq) ∧ ¬(¬pR¬q)) and ((pUq) ∧ (¬pR¬q)) both unsatisfiable.
  EXPECT_FALSE(CheckSatFinite(LtlFormula::And(
                                  {LtlFormula::Not(u), LtlFormula::Not(r)}))
                   .satisfiable);
  EXPECT_FALSE(CheckSatFinite(LtlFormula::And({u, r})).satisfiable);
}

TEST(LtlFormulaTest, ClassifiersAndSize) {
  LtlPtr x_only = LtlFormula::Next(LtlFormula::And({P(0), P(1)}));
  EXPECT_TRUE(x_only->IsXOnly());
  EXPECT_EQ(x_only->XDepth(), 1);
  LtlPtr with_u = LtlFormula::Until(P(0), P(1));
  EXPECT_FALSE(with_u->IsXOnly());
  EXPECT_EQ(x_only->Props(), (std::set<int>{0, 1}));
  EXPECT_GE(with_u->Size(), 3u);
}

TEST(TableauTest, BuildsReachableGraph) {
  Result<TableauAutomaton> t =
      BuildTableau(LtlFormula::Eventually(P(0)), 1000);
  ASSERT_TRUE(t.ok());
  EXPECT_GT(t.value().num_states, 0);
  EXPECT_FALSE(t.value().edges.empty());
  // Some edge requiring p may end the word.
  bool found = false;
  for (const TableauEdge& e : t.value().edges) {
    if (e.pos_lits.count(0) > 0 && e.may_end) found = true;
  }
  EXPECT_TRUE(found);
}

/// `F G` nested n times around one proposition.
LtlPtr FgNest(int n) {
  LtlPtr f = P(0);
  for (int i = 0; i < n; ++i) {
    f = LtlFormula::Eventually(LtlFormula::Globally(f));
  }
  return f;
}

TEST(TableauTest, AlternatingNestStopsAtTheExpansionBudget) {
  // The branch enumeration of alternating F/G nests grows
  // super-exponentially while the state count stays tiny (64 states at
  // n = 6), so only the expansion budget stops it. n = 4 fits.
  Result<TableauAutomaton> small = BuildTableau(FgNest(4), 1u << 18);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_EQ(small.value().num_states, 16);

  auto start = std::chrono::steady_clock::now();
  Result<TableauAutomaton> big = BuildTableau(FgNest(7), 1u << 18);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(seconds, 1.0);

}

/// Exhaustive cross-check: tableau satisfiability agrees with brute
/// force over all words of length <= 3 over 2 propositions, for random
/// formulas. (If the formula has a witness at all, bounded-length
/// witnesses exist for this size of formula.)
class LtlRandomTest : public ::testing::TestWithParam<int> {
 protected:
  LtlPtr RandomFormula(Rng* rng, int depth) {
    if (depth == 0) {
      return P(static_cast<int>(rng->Uniform(2)));
    }
    switch (rng->Uniform(6)) {
      case 0:
        return LtlFormula::Not(RandomFormula(rng, depth - 1));
      case 1:
        return LtlFormula::And({RandomFormula(rng, depth - 1),
                                RandomFormula(rng, depth / 2)});
      case 2:
        return LtlFormula::Or({RandomFormula(rng, depth - 1),
                               RandomFormula(rng, depth / 2)});
      case 3:
        return LtlFormula::Next(RandomFormula(rng, depth - 1));
      case 4:
        return LtlFormula::Until(RandomFormula(rng, depth / 2),
                                 RandomFormula(rng, depth - 1));
      default:
        return LtlFormula::Globally(RandomFormula(rng, depth - 1));
    }
  }

  bool BruteForceSat(const LtlPtr& f, size_t max_len) {
    // All words over subsets of {0,1}.
    std::vector<Word> frontier = {{}};
    for (size_t len = 1; len <= max_len; ++len) {
      std::vector<Word> next;
      for (const Word& w : frontier) {
        for (int letter = 0; letter < 4; ++letter) {
          Word extended = w;
          std::set<int> props;
          if (letter & 1) props.insert(0);
          if (letter & 2) props.insert(1);
          extended.push_back(props);
          if (EvalOnWord(f, extended)) return true;
          next.push_back(std::move(extended));
        }
      }
      frontier = std::move(next);
    }
    return false;
  }
};

TEST_P(LtlRandomTest, SatAgreesWithBruteForceOnShortWords) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  LtlPtr f = RandomFormula(&rng, 3);
  SatResult r = CheckSatFinite(f);
  ASSERT_FALSE(r.resource_exhausted);
  bool brute = BruteForceSat(f, 3);
  if (brute) {
    EXPECT_TRUE(r.satisfiable) << f->ToString();
  }
  if (r.satisfiable) {
    // The witness really models the formula.
    EXPECT_TRUE(EvalOnWord(f, r.witness)) << f->ToString();
    // And if the witness is short, brute force must agree.
    if (r.witness.size() <= 3) {
      EXPECT_TRUE(brute) << f->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LtlRandomTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace ltl
}  // namespace accltl

// Copyright (c) Eleos reproduction authors. MIT license.
//
// gtest assertions on eleos::Status / StatusOr: EXPECT_OK(expr) and
// ASSERT_OK(expr) print the failing status.

#ifndef ELEOS_TESTS_TEST_STATUS_H_
#define ELEOS_TESTS_TEST_STATUS_H_

#include <gtest/gtest.h>

#include "src/common/status.h"

namespace eleos::testing {

inline ::testing::AssertionResult IsOk(const Status& status) {
  if (status.ok()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << status.ToString();
}

template <typename T>
::testing::AssertionResult IsOk(const StatusOr<T>& status_or) {
  return IsOk(status_or.status());
}

}  // namespace eleos::testing

#define EXPECT_OK(expr) EXPECT_TRUE(::eleos::testing::IsOk(expr))
#define ASSERT_OK(expr) ASSERT_TRUE(::eleos::testing::IsOk(expr))

#endif  // ELEOS_TESTS_TEST_STATUS_H_

package mapping

import "picpredict/internal/mesh"

// Decomposition returns the element decomposition the mapper has installed,
// for the tests in package mapping_test.
func (dm *DynamicMapper) Decomposition() *mesh.Decomposition { return dm.decomp }
